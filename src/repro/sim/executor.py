"""Instruction-set executor: the functional semantics of the modelled ISA.

The :class:`Executor` runs one hart, one superblock at a time
(:meth:`Executor.run_block`; blocks come from :mod:`repro.isa.compiled`).
It is used directly by the golden model and subclassed by the DUT harness
(:mod:`repro.rtl.harness`), which overrides :meth:`Executor.run_block` with
an instrumented fused loop and the protected hook methods the handlers call
(``_mem_load``, ``_csr_read``, ``_trap_cause`` ...) to inject
microarchitectural behaviour, coverage instrumentation and the paper's
vulnerabilities.

Execution is table-dispatched: every mnemonic's handler -- including its
canonical ALU operation, operand signedness and load/store width -- is
resolved **once** from the instruction-spec table when this module is
imported, not per step.  Handlers are closures that reach all overridable
behaviour (memory, CSRs) through the ``self`` hook methods, so a single
shared dispatch table serves the golden executor and every DUT subclass
without changing their semantics.

Harness conventions (shared by the golden model and all DUTs so that a
*correct* DUT produces a bit-identical commit trace):

* Traps are recorded architecturally (mcause/mepc/mtval updated) and then
  execution resumes at the *next* instruction, modelling a bare-metal test
  harness whose trap handler skips the faulting instruction.
* ``ecall`` ends the test.
* Every executed instruction increments ``minstret`` and ``mcycle`` by one.
* A program halts when the pc leaves the program body, when the step limit
  is reached, or at ``ecall``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.isa import csr as csrdefs
from repro.isa.compiled import Superblock, dirty_word_span
from repro.isa.encoding import InstrClass, InstrFormat, SPECS, spec_for
from repro.isa.exceptions import Trap, TrapCause
from repro.isa.instruction import ILLEGAL_MNEMONIC, Instruction
from repro.sim.memory import Memory
from repro.sim.state import ArchState
from repro.sim.trace import CommitRecord, HaltReason
from repro.utils.bits import MASK64, sign_extend


@dataclass(frozen=True)
class ExecutorConfig:
    """Execution-policy knobs shared by golden and DUT models."""

    step_limit: int = 512
    count_trapped_instructions: bool = True


_LOAD_SIZES = {
    "lb": (1, True), "lh": (2, True), "lw": (4, True), "ld": (8, True),
    "lbu": (1, False), "lhu": (2, False), "lwu": (4, False),
}
_STORE_SIZES = {"sb": 1, "sh": 2, "sw": 4, "sd": 8}


def _div(dividend: int, divisor: int, signed: bool, bits: int) -> int:
    if divisor == 0:
        return -1 if signed else (1 << bits) - 1
    if signed and dividend == -(1 << (bits - 1)) and divisor == -1:
        return dividend
    quotient = abs(dividend) // abs(divisor)
    if signed and (dividend < 0) != (divisor < 0):
        quotient = -quotient
    return quotient


def _rem(dividend: int, divisor: int, signed: bool, bits: int) -> int:
    if divisor == 0:
        return dividend
    if signed and dividend == -(1 << (bits - 1)) and divisor == -1:
        return 0
    remainder = abs(dividend) % abs(divisor)
    if signed and dividend < 0:
        remainder = -remainder
    return remainder


def _word_result(result: int) -> int:
    """32-bit result, sign-extended into the 64-bit register domain."""
    return sign_extend(result & 0xFFFF_FFFF, 32) & MASK64


def _w(value: int) -> int:
    """Low 32 bits of ``value`` as a signed Python integer."""
    return sign_extend(value & 0xFFFF_FFFF, 32)


def _s(value: int) -> int:
    """A register value (or a small signed immediate) as a signed 64-bit int."""
    return value - (1 << 64) if value >= 1 << 63 else value


# Canonical ALU operation -> value function.  Each takes the raw operand
# values (register reads are unsigned 64-bit; immediates may be negative
# Python ints) and returns a value congruent to the 64-bit result modulo
# 2**64, which ``_commit_rd`` masks -- exactly the values the original
# per-step string-dispatched implementation produced.
_ALU_OPS: Dict[str, Callable[[int, int], int]] = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "sll": lambda a, b: a << (b & 0x3F),
    "slt": lambda a, b: 1 if _s(a) < _s(b) else 0,
    "sltu": lambda a, b: 1 if a < (b & MASK64) else 0,
    "xor": lambda a, b: a ^ b,
    "srl": lambda a, b: a >> (b & 0x3F),
    "sra": lambda a, b: _s(a) >> (b & 0x3F),
    "or": lambda a, b: a | b,
    "and": lambda a, b: a & b,
    "mul": lambda a, b: a * b,
    "mulh": lambda a, b: (_s(a) * _s(b)) >> 64,
    "mulhsu": lambda a, b: (_s(a) * b) >> 64,
    "mulhu": lambda a, b: (a * b) >> 64,
    "div": lambda a, b: _div(_s(a), _s(b), True, 64),
    "divu": lambda a, b: _div(a, b, False, 64),
    "rem": lambda a, b: _rem(_s(a), _s(b), True, 64),
    "remu": lambda a, b: _rem(a, b, False, 64),
    "addw": lambda a, b: _word_result(_w(a) + _w(b)),
    "subw": lambda a, b: _word_result(_w(a) - _w(b)),
    "sllw": lambda a, b: _word_result((a & 0xFFFF_FFFF) << (b & 0x1F)),
    "srlw": lambda a, b: _word_result((a & 0xFFFF_FFFF) >> (b & 0x1F)),
    "sraw": lambda a, b: _word_result(_w(a) >> (b & 0x1F)),
    "mulw": lambda a, b: _word_result(_w(a) * _w(b)),
    "divw": lambda a, b: _word_result(_div(_w(a), _w(b), True, 32)),
    "divuw": lambda a, b: _word_result(
        _div(a & 0xFFFF_FFFF, b & 0xFFFF_FFFF, False, 32)),
    "remw": lambda a, b: _word_result(_rem(_w(a), _w(b), True, 32)),
    "remuw": lambda a, b: _word_result(
        _rem(a & 0xFFFF_FFFF, b & 0xFFFF_FFFF, False, 32)),
}

_BRANCH_OPS: Dict[str, Callable[[int, int], bool]] = {
    "beq": lambda a, b: a == b,
    "bne": lambda a, b: a != b,
    "blt": lambda a, b: _s(a) < _s(b),
    "bge": lambda a, b: _s(a) >= _s(b),
    "bltu": lambda a, b: a < b,
    "bgeu": lambda a, b: a >= b,
}

_AMO_OPS: Dict[str, Callable[[int, int], int]] = {
    "amoswap": lambda old, rs2: rs2,
    "amoadd": lambda old, rs2: old + rs2,
    "amoxor": lambda old, rs2: old ^ rs2,
    "amoand": lambda old, rs2: old & rs2,
    "amoor": lambda old, rs2: old | rs2,
}


class Executor:
    """Functional executor for one hart over an :class:`ArchState` + :class:`Memory`."""

    def __init__(self, state: ArchState, memory: Memory,
                 config: Optional[ExecutorConfig] = None) -> None:
        self.state = state
        self.memory = memory
        self.config = config or ExecutorConfig()
        self.halted = False
        self.halt_reason: Optional[HaltReason] = None
        #: ``(base_address, end_address)`` of the program, set per run.
        self.code_window: Tuple[int, int] = (0, 0)

    # =================================================================== hooks
    # The handlers reach memory and CSRs through these; the DUT harness
    # overrides them to model cache effects, coverage emission and the
    # injected vulnerabilities.

    def _mem_load(self, address: int, size: int, signed: bool,
                  instr: Instruction) -> int:
        return self.memory.load(address, size, signed)

    def _mem_store(self, address: int, value: int, size: int,
                   instr: Instruction) -> None:
        self.memory.store(address, value, size)

    def _csr_read(self, address: int, instr: Instruction) -> int:
        return self.state.read_csr(address)

    def _csr_write(self, address: int, value: int, instr: Instruction) -> None:
        self.state.write_csr(address, value)

    # ============================================================ superblocks
    def run_block(self, block: Superblock, records: list) -> Optional[tuple]:
        """Execute one superblock from the current pc: the only way an
        instruction commits.

        The caller (the shared run loop in :mod:`repro.sim.golden`)
        guarantees the preconditions: ``state.pc`` is the block's leader
        address, none of the block's words are dirty, and at least
        ``block.length`` steps remain under the step limit (the loop
        hands over a truncated block otherwise).  Commit records are
        appended to ``records`` directly; ``state.pc`` is written once at
        block exit, from the last record's ``next_pc`` (a redirecting
        tail's target, ``mepc`` after an ``mret``, ``pc + 4`` otherwise).
        Returns the ``(first, last)`` dirty-word span of a committed store
        that hit :attr:`code_window` -- which aborts the block after that
        instruction, so every subsequent word is re-fetched -- or ``None``.

        This base implementation runs the *base* semantics: handler call,
        trap commit, retirement counters.  The DUT harness overrides it
        with a fused loop that adds coverage and the injected bugs.
        """
        state = self.state
        csrs = state.csrs
        pc = state.pc
        count_trapped = self.config.count_trapped_instructions
        append = records.append
        dirtied = None
        # Retirement counters are batched: nothing before a block's tail
        # can read MINSTRET/MCYCLE, so one pair of dict writes at block
        # exit replaces two per entry.  A CSR tail *can* read (or write)
        # them, so the batch is flushed -- and restarted -- right before
        # the tail entry executes; ``commits`` equals the entry index, so
        # the flush triggers exactly there.
        flush_at = block.length - 1 if block.csr_tail else -1
        commits = 0
        uncounted = 0  # trapped commits excluded from minstret
        for word, instr, handler in block.entries:
            if commits == flush_at:
                csrs[csrdefs.MINSTRET] = (
                    csrs[csrdefs.MINSTRET] + commits - uncounted) & MASK64
                csrs[csrdefs.MCYCLE] = (csrs[csrdefs.MCYCLE] + commits) & MASK64
                commits = 0
                uncounted = 0
                flush_at = -1
            try:
                record = handler(self, instr, pc, word)
            except Trap as trap:
                csrs[csrdefs.MEPC] = pc
                csrs[csrdefs.MCAUSE] = int(trap.cause)
                csrs[csrdefs.MTVAL] = trap.tval & MASK64
                record = CommitRecord(pc, word, instr.mnemonic, None, None,
                                      trap.cause, None, None, None, None, None,
                                      (pc + 4) & MASK64, trap.tval & MASK64)
                if not count_trapped:
                    uncounted += 1
            commits += 1
            append(record)
            pc += 4
            mem_addr = record.mem_addr
            if mem_addr is not None:
                dirtied = dirty_word_span(mem_addr, record.mem_size or 1,
                                          *self.code_window)
                if dirtied is not None:
                    break  # store hit the code window: stop fused execution
        csrs[csrdefs.MINSTRET] = (csrs[csrdefs.MINSTRET] + commits - uncounted) & MASK64
        csrs[csrdefs.MCYCLE] = (csrs[csrdefs.MCYCLE] + commits) & MASK64
        state.pc = record.next_pc
        return dirtied

    def run_block_generic(self, block: Superblock, records: list) -> Optional[tuple]:
        """:meth:`run_block` under its former second name.

        Nothing in the package calls it; it stays only because
        ``perfbench/tracer.py`` binds it by name, and goes once the tracer
        stops doing so.
        """
        return self.run_block(block, records)

    # ============================================================= loop replay
    def periodic_state(self) -> tuple:
        """Everything that decides future commits, as one comparable value.

        The shared run loop (:mod:`repro.sim.golden`) takes it at two
        arrivals one loop period apart: equal values mean every further
        period commits the same records.  Left out are MINSTRET/MCYCLE
        (and a DUT's step index), which advance every period; the loop only
        replays periods with no CSR instruction on those counters or
        their CYCLE/TIME/INSTRET aliases (the counters' only readers and
        writers) and advances all three itself.  Every other CSR is in
        the value.  A subclass whose own state feeds back into commits,
        coverage or bug effects must extend the value with it.
        """
        state = self.state
        csrs = dict(state.csrs)
        del csrs[csrdefs.MINSTRET], csrs[csrdefs.MCYCLE]
        return (state.pc, tuple(state.regs), bytes(self.memory._data), csrs,
                state.reservation)

    def replay_period(self, records: list, period: int, copies: int,
                      counter_steps: Tuple[int, int]) -> None:
        """Append ``copies`` repetitions of the last ``period`` records.

        The run loop calls this once the period began and ended in equal
        :meth:`periodic_state`, so each repetition would commit the same
        records ``period`` steps later.  A record does not carry its step,
        so the repetitions are the period's own record objects, appended
        by reference.  MINSTRET/MCYCLE advance as ``copies`` executed
        periods would advance them; ``counter_steps`` is their advance
        over the verified period.
        """
        records.extend(records[-period:] * copies)
        csrs = self.state.csrs
        csrs[csrdefs.MINSTRET] = (csrs[csrdefs.MINSTRET]
                                  + copies * counter_steps[0]) & MASK64
        csrs[csrdefs.MCYCLE] = (csrs[csrdefs.MCYCLE]
                                + copies * counter_steps[1]) & MASK64

    # ============================================================ trap commits
    def fetch_fault(self, pc: int) -> CommitRecord:
        """Commit the fault of fetching at a misaligned in-range ``pc``.

        Only an ``mret`` to a software-written ``mepc`` gets there.  The
        fetch faults before anything is decoded, so the trap record names
        no instruction, retires nothing and emits no coverage; the run
        loop then halts with ``PC_OUT_OF_RANGE``.
        """
        cause = TrapCause.INSTRUCTION_ADDRESS_MISALIGNED
        csrs = self.state.csrs
        csrs[csrdefs.MEPC] = pc
        csrs[csrdefs.MCAUSE] = int(cause)
        csrs[csrdefs.MTVAL] = pc
        return CommitRecord(pc, 0, ILLEGAL_MNEMONIC, None, None, cause, None,
                            None, None, None, None, (pc + 4) & MASK64, pc)

    def _commit_suppressed_trap(self, pc: int, word: int,
                                instr: Instruction) -> CommitRecord:
        """Commit an instruction whose trap was (incorrectly) suppressed."""
        rd = instr.rd if not instr.is_illegal and spec_for(instr.mnemonic).writes_rd else None
        rd_value = None
        if rd is not None:
            self.state.write_reg(rd, 0)
            rd_value = 0 if rd != 0 else None
            rd = rd if rd != 0 else None
        return CommitRecord(pc, word, instr.mnemonic, rd, rd_value, None, None,
                            None, None, None, None, (pc + 4) & MASK64)

    # ------------------------------------------------------------------ helpers
    def _commit_rd(self, instr: Instruction, pc: int, word: int, value: int,
                   next_pc: Optional[int] = None, mem_addr: Optional[int] = None,
                   mem_value: Optional[int] = None,
                   mem_size: Optional[int] = None) -> CommitRecord:
        value &= MASK64
        rd = instr.rd
        if rd:  # write_reg inlined: x0 stays hardwired to zero
            self.state.regs[rd] = value
        return CommitRecord(
            pc, word, instr.mnemonic, rd or None, value if rd else None, None,
            mem_addr, mem_value, mem_size, None, None,
            (pc + 4) & MASK64 if next_pc is None else next_pc & MASK64)

    def _commit_simple(self, instr: Instruction, pc: int, word: int,
                       next_pc: Optional[int] = None) -> CommitRecord:
        return CommitRecord(
            pc, word, instr.mnemonic, None, None, None, None, None, None, None,
            None, (pc + 4) & MASK64 if next_pc is None else next_pc & MASK64)


# ============================================================ handler factory
# One handler closure per mnemonic, specialised at import time with
# everything that is static per instruction (ALU op, operand source,
# load/store width, branch comparator, AMO op, CSR flavour).  Handlers call
# all overridable behaviour through ``self`` hook methods, so the table is
# shared by the golden Executor and every DUT subclass.

def _make_lui_handler():
    def execute(self: Executor, instr: Instruction, pc: int, word: int) -> CommitRecord:
        return self._commit_rd(instr, pc, word, sign_extend(instr.imm << 12, 32))
    return execute


def _make_auipc_handler():
    def execute(self: Executor, instr: Instruction, pc: int, word: int) -> CommitRecord:
        return self._commit_rd(instr, pc, word, pc + sign_extend(instr.imm << 12, 32))
    return execute


def _make_alu_handler(alu_op: str, src_imm: bool):
    value_of = _ALU_OPS[alu_op]
    if src_imm:
        def execute(self: Executor, instr: Instruction, pc: int, word: int) -> CommitRecord:
            rs1 = self.state.regs[instr.rs1]
            return self._commit_rd(instr, pc, word, value_of(rs1, instr.imm))
    else:
        def execute(self: Executor, instr: Instruction, pc: int, word: int) -> CommitRecord:
            regs = self.state.regs
            return self._commit_rd(instr, pc, word,
                                   value_of(regs[instr.rs1], regs[instr.rs2]))
    return execute


def _make_load_handler(size: int, signed: bool):
    def execute(self: Executor, instr: Instruction, pc: int, word: int) -> CommitRecord:
        address = (self.state.regs[instr.rs1] + instr.imm) & MASK64
        value = self._mem_load(address, size, signed, instr)
        return self._commit_rd(instr, pc, word, value)
    return execute


def _make_store_handler(size: int):
    mask = (1 << (8 * size)) - 1
    def execute(self: Executor, instr: Instruction, pc: int, word: int) -> CommitRecord:
        regs = self.state.regs
        address = (regs[instr.rs1] + instr.imm) & MASK64
        value = regs[instr.rs2] & mask
        self._mem_store(address, value, size, instr)
        return CommitRecord(pc, word, instr.mnemonic, None, None, None,
                            address, value, size, None, None, (pc + 4) & MASK64)
    return execute


def _make_branch_handler(mnemonic: str):
    taken_of = _BRANCH_OPS[mnemonic]
    def execute(self: Executor, instr: Instruction, pc: int, word: int) -> CommitRecord:
        regs = self.state.regs
        taken = taken_of(regs[instr.rs1], regs[instr.rs2])
        target = (pc + instr.imm) & MASK64 if taken else (pc + 4) & MASK64
        if taken and target % 4 != 0:
            raise Trap(TrapCause.INSTRUCTION_ADDRESS_MISALIGNED, tval=target)
        return self._commit_simple(instr, pc, word, next_pc=target)
    return execute


def _make_jump_handler(mnemonic: str):
    is_jal = mnemonic == "jal"
    def execute(self: Executor, instr: Instruction, pc: int, word: int) -> CommitRecord:
        if is_jal:
            target = (pc + instr.imm) & MASK64
        else:  # jalr
            target = (self.state.regs[instr.rs1] + instr.imm) & MASK64 & ~1
        if target % 4 != 0:
            raise Trap(TrapCause.INSTRUCTION_ADDRESS_MISALIGNED, tval=target)
        return self._commit_rd(instr, pc, word, pc + 4, next_pc=target)
    return execute


def _make_csr_handler(mnemonic: str, fmt: InstrFormat):
    is_imm = fmt is InstrFormat.CSR_IMM
    kind = mnemonic[4]  # csrr[w|s|c](i) -> "w" / "s" / "c"
    conditional = kind in ("s", "c")
    def execute(self: Executor, instr: Instruction, pc: int, word: int) -> CommitRecord:
        address = instr.csr
        operand = (instr.imm & 0x1F) if is_imm else self.state.regs[instr.rs1]
        writes = True
        if conditional:
            source_is_zero = (instr.imm & 0x1F) == 0 if is_imm else instr.rs1 == 0
            writes = not source_is_zero
        old_value = self._csr_read(address, instr)
        new_value = None
        if writes:
            if kind == "w":
                new_value = operand
            elif kind == "s":
                new_value = old_value | operand
            else:
                new_value = old_value & ~operand
            self._csr_write(address, new_value, instr)
        record = self._commit_rd(instr, pc, word, old_value)
        if new_value is not None:
            record = CommitRecord(pc, word, record.mnemonic, record.rd,
                                  record.rd_value, None, None, None, None,
                                  address, new_value & MASK64, record.next_pc)
        return record
    return execute


def _make_system_handler(mnemonic: str):
    if mnemonic == "ecall":
        # ``ecall`` ends the test: it is always the last entry a block
        # runs (SYSTEM instructions only close blocks), and the run loop
        # stops at the halt once its trap record has committed.
        def execute(self: Executor, instr: Instruction, pc: int, word: int) -> CommitRecord:
            self.halted = True
            self.halt_reason = HaltReason.ECALL
            raise Trap(TrapCause.ECALL_FROM_M, tval=0)
    elif mnemonic == "ebreak":
        def execute(self: Executor, instr: Instruction, pc: int, word: int) -> CommitRecord:
            raise Trap(TrapCause.BREAKPOINT, tval=pc)
    elif mnemonic == "mret":
        def execute(self: Executor, instr: Instruction, pc: int, word: int) -> CommitRecord:
            return self._commit_simple(instr, pc, word,
                                       next_pc=self.state.csrs[csrdefs.MEPC])
    else:  # wfi behaves as a nop in this harness.
        def execute(self: Executor, instr: Instruction, pc: int, word: int) -> CommitRecord:
            return self._commit_simple(instr, pc, word)
    return execute


def _make_fence_handler():
    def execute(self: Executor, instr: Instruction, pc: int, word: int) -> CommitRecord:
        return self._commit_simple(instr, pc, word)
    return execute


def _make_atomic_handler(mnemonic: str):
    base = mnemonic.split(".")[0]
    size = 4 if mnemonic.endswith(".w") else 8
    signed = size == 4
    mask = (1 << (8 * size)) - 1
    if base == "lr":
        def execute(self: Executor, instr: Instruction, pc: int, word: int) -> CommitRecord:
            address = self.state.regs[instr.rs1] & MASK64
            value = self._mem_load(address, size, signed, instr)
            self.state.reservation = address
            return self._commit_rd(instr, pc, word, value)
    elif base == "sc":
        def execute(self: Executor, instr: Instruction, pc: int, word: int) -> CommitRecord:
            state = self.state
            address = state.regs[instr.rs1] & MASK64
            if state.reservation == address:
                value = state.regs[instr.rs2] & mask
                self._mem_store(address, value, size, instr)
                state.reservation = None
                return self._commit_rd(instr, pc, word, 0, mem_addr=address,
                                       mem_value=value, mem_size=size)
            state.reservation = None
            return self._commit_rd(instr, pc, word, 1)
    else:
        amo_of = _AMO_OPS[base]
        def execute(self: Executor, instr: Instruction, pc: int, word: int) -> CommitRecord:
            state = self.state
            address = state.regs[instr.rs1] & MASK64
            old = self._mem_load(address, size, signed, instr)
            new = amo_of(old, state.regs[instr.rs2]) & mask
            self._mem_store(address, new, size, instr)
            return self._commit_rd(instr, pc, word, old, mem_addr=address,
                                   mem_value=new, mem_size=size)
    return execute


def _illegal_handler(self: Executor, instr: Instruction, pc: int,
                     word: int) -> CommitRecord:
    """Illegal words raise the illegal-instruction trap, whose commit falls
    through to ``pc + 4`` like any straight-line entry."""
    raise Trap(TrapCause.ILLEGAL_INSTRUCTION, tval=word)


def _build_handlers() -> Dict[str, Callable]:
    handlers: Dict[str, Callable] = {}
    for mnemonic, spec in SPECS.items():
        cls = spec.cls
        if mnemonic == "lui":
            handlers[mnemonic] = _make_lui_handler()
        elif mnemonic == "auipc":
            handlers[mnemonic] = _make_auipc_handler()
        elif spec.alu_op is not None:
            handlers[mnemonic] = _make_alu_handler(spec.alu_op, spec.alu_src_imm)
        elif cls is InstrClass.LOAD:
            size, signed = _LOAD_SIZES[mnemonic]
            handlers[mnemonic] = _make_load_handler(size, signed)
        elif cls is InstrClass.STORE:
            handlers[mnemonic] = _make_store_handler(_STORE_SIZES[mnemonic])
        elif cls is InstrClass.BRANCH:
            handlers[mnemonic] = _make_branch_handler(mnemonic)
        elif cls is InstrClass.JUMP:
            handlers[mnemonic] = _make_jump_handler(mnemonic)
        elif cls is InstrClass.CSR:
            handlers[mnemonic] = _make_csr_handler(mnemonic, spec.fmt)
        elif cls is InstrClass.SYSTEM:
            handlers[mnemonic] = _make_system_handler(mnemonic)
        elif cls is InstrClass.FENCE:
            handlers[mnemonic] = _make_fence_handler()
        elif cls is InstrClass.ATOMIC:
            handlers[mnemonic] = _make_atomic_handler(mnemonic)
        else:  # pragma: no cover - defensive
            raise AssertionError(f"unhandled class {cls}")
    handlers[ILLEGAL_MNEMONIC] = _illegal_handler
    return handlers


#: mnemonic -> handler closure, built once from SPECS at import time.
_HANDLERS: Dict[str, Callable] = _build_handlers()


def handler_for(instr: Instruction) -> Callable:
    """The execute closure for ``instr`` (illegal words included).

    Used by the trace compiler (:mod:`repro.isa.compiled`) to resolve
    handlers once per program instead of once per step.
    """
    return _HANDLERS[instr.mnemonic]
