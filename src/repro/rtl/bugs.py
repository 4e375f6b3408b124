"""Injectable vulnerabilities V1-V7 (Table I of the paper).

Each bug mirrors one of the real CVA6/Rocket defects the paper's evaluation
detects, reproduced as a behavioural deviation of the DUT model from the
golden reference.  The *trigger condition* of each bug is chosen so that the
relative detection difficulty matches the paper:

========  =====================================================================
 Bug       Trigger (what a test must do for the DUT to misbehave)
========  =====================================================================
 V1        execute ``fence.i`` after at least one store committed in the run
 V2        execute an illegal word that looks like an R-type ALU op
           (opcode ``OP``, funct3 = 0, reserved funct7)
 V3        raise two exceptions within two instructions of each other with
           different causes (the second reports the first's cause)
 V4        perform an atomic access to a cache line made dirty by an earlier
           store holding a non-zero value (the atomic reads stale data)
 V5        access an invalid (out-of-window) memory address -- the exception
           is silently swallowed
 V6        read one of the unimplemented debug CSRs -- X-values are returned
           instead of an illegal-instruction exception
 V7        execute ``ebreak`` (instruction count not incremented) and later
           read ``minstret``/``instret`` so the discrepancy becomes visible
========  =====================================================================

A bug only calls :meth:`note_effect` when it actually *changed* architectural
behaviour in the current run; the differential tester uses this to attribute
mismatches to bug identifiers (Sec. IV-B bookkeeping).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.isa.encoding import OPCODE_OP
from repro.isa.exceptions import Trap, TrapCause
from repro.isa.instruction import Instruction
from repro.utils.bits import MASK64, get_bits


class InjectedBug:
    """Base class of an injectable DUT defect.

    Subclasses override the hook methods they need; every hook receives the
    :class:`~repro.rtl.harness.DutExecutor` so it can inspect run state
    (recent stores, cache dirtiness, recent traps ...).

    The DUT's fused superblock loop fires the hooks where they act:
    ``on_mem_load``, ``on_csr_read`` and ``on_csr_write`` inside the
    instruction handlers, ``on_trap`` on every trap commit.  ``on_decode``
    and ``should_count_retirement`` only fire on the per-step path, so a
    bug overriding either must declare in :meth:`triggers_on` every
    instruction they can act on: the fused loop stops before such an
    entry and runs it per-step.

    The run loop replays a loop iteration instead of simulating it once
    :meth:`~repro.rtl.harness.DutExecutor.periodic_state` compares equal
    one iteration apart, also when a bug acts in it: the replay copies the
    iteration's effects.  So every piece of per-run state a hook reads
    must be in that snapshot.  The executor's own history is, up to the
    declared :attr:`history_window`.  A bug keeps no per-run state of its
    own (no method but ``__init__`` assigns a ``self.`` attribute, and
    :meth:`reset` is a no-op): state the snapshot does not hold could
    differ between the verified iteration and a later one, so a replayed
    copy would diverge from what simulating it commits.
    """

    bug_id: str = "V?"
    cwe: int = 0
    processor: str = ""
    description: str = ""
    #: how many commits back the hooks look at ``last_store_step`` or
    #: ``last_trap_step``; 0 when they read neither.  Like
    #: :meth:`triggers_on`, a static declaration: the DUT keeps those
    #: distances in its loop-replay snapshot only up to one past the
    #: largest window its bugs declare.
    history_window: int = 0

    def reset(self) -> None:
        """Clear per-run state (called before every program run)."""

    def note_effect(self, executor) -> None:
        """Record that this bug altered behaviour at the current step."""
        executor.note_bug_effect(self.bug_id)

    # ------------------------------------------------------------------- hooks
    @staticmethod
    def triggers_on(instr: Instruction, word: int) -> bool:
        """Whether ``on_decode`` or ``should_count_retirement`` may act here.

        A static declaration over the decoded instruction and its word
        (no run state), so the DUT harness evaluates it once per
        superblock and bug set.  It must be true wherever ``on_decode``
        could return a replacement or ``should_count_retirement`` could
        return ``False``; being true elsewhere only costs speed.
        """
        return False

    def on_decode(self, executor, instr: Instruction,
                  word: int) -> Optional[Instruction]:
        """Return a replacement decode result, or ``None`` for no change."""
        return None

    def on_csr_read(self, executor, address: int,
                    instr: Instruction) -> Optional[int]:
        """Return a value to use for the CSR read, or ``None`` for no change."""
        return None

    def on_csr_write(self, executor, address: int, value: int,
                     instr: Instruction) -> bool:
        """Return True if this bug absorbs the CSR write (suppressing its trap)."""
        return False

    def on_mem_load(self, executor, address: int, size: int, value: int,
                    instr: Instruction) -> Optional[int]:
        """Return a replacement loaded value, or ``None`` for no change."""
        return None

    def on_trap(self, executor, trap: Trap, instr: Instruction,
                pc: int) -> Optional[Trap]:
        """Return the trap to report (possibly modified) or ``None`` to swallow it."""
        return trap

    def should_count_retirement(self, executor, instr: Instruction) -> bool:
        """Whether this instruction should increment the retired-instruction count."""
        return True


class FenceIDecodeBug(InjectedBug):
    """V1: FENCE.I instruction decoded incorrectly (CWE-440, CVA6)."""

    bug_id = "V1"
    cwe = 440
    processor = "cva6"
    description = "FENCE.I instruction decoded incorrectly"

    #: the store buffer must still be draining: a store within this many
    #: commits before the fence.i exercises the broken decode path.
    history_window = 2

    @staticmethod
    def triggers_on(instr: Instruction, word: int) -> bool:
        return instr.mnemonic == "fence.i"

    def on_decode(self, executor, instr: Instruction,
                  word: int) -> Optional[Instruction]:
        if not self.triggers_on(instr, word):
            return None
        last_store = executor.last_store_step
        if last_store is None or executor.current_step - last_store > self.history_window:
            return None
        self.note_effect(executor)
        return Instruction.illegal(word)


class IllegalInstructionExecutedBug(InjectedBug):
    """V2: some illegal instructions can be executed (CWE-1242, CVA6)."""

    bug_id = "V2"
    cwe = 1242
    processor = "cva6"
    description = "Some illegal instructions can be executed"

    #: funct7 values legal for opcode OP with funct3 = 0 (ADD/SUB/MUL).
    _LEGAL_FUNCT7 = frozenset({0x00, 0x01, 0x20})

    @staticmethod
    def _is_broken_funct7(funct7: int) -> bool:
        """Reserved funct7 patterns the broken decoder mistakes for ADD.

        The defect affects the one-hot reserved patterns adjacent in encoding
        space to the legal 0x00/0x01/0x20 values -- the encodings a single
        corrupted wire can reach.  This keeps V2 the hardest-to-trigger CVA6
        defect, as in the paper's Table I.
        """
        if funct7 in IllegalInstructionExecutedBug._LEGAL_FUNCT7:
            return False
        return bin(funct7).count("1") == 1

    @staticmethod
    def triggers_on(instr: Instruction, word: int) -> bool:
        """An illegal word of opcode OP, funct3 0 and a broken funct7."""
        return (instr.is_illegal
                and get_bits(word, 6, 0) == OPCODE_OP
                and get_bits(word, 14, 12) == 0
                and IllegalInstructionExecutedBug._is_broken_funct7(
                    get_bits(word, 31, 25)))

    def on_decode(self, executor, instr: Instruction,
                  word: int) -> Optional[Instruction]:
        if not self.triggers_on(instr, word):
            return None
        # The broken decoder ignores the reserved funct7 and issues an ADD.
        self.note_effect(executor)
        return Instruction(
            "add",
            rd=get_bits(word, 11, 7),
            rs1=get_bits(word, 19, 15),
            rs2=get_bits(word, 24, 20),
        )


class ExceptionPropagationBug(InjectedBug):
    """V3: exception type incorrectly propagated in the instruction queue (CWE-1202)."""

    bug_id = "V3"
    cwe = 1202
    processor = "cva6"
    description = "Exception type incorrectly propagated in instruction queue"

    #: maximum commit distance between the two exceptions for the defect to fire.
    history_window = 2
    #: causes the first (queued) exception must have for its stale type to
    #: linger in the instruction queue.
    _QUEUED_CAUSES = frozenset(
        {TrapCause.LOAD_ACCESS_FAULT, TrapCause.STORE_ACCESS_FAULT}
    )
    #: causes of the second exception that get overwritten by the stale type.
    _OVERWRITTEN_CAUSES = frozenset(
        {
            TrapCause.ILLEGAL_INSTRUCTION,
            TrapCause.LOAD_ADDRESS_MISALIGNED,
            TrapCause.STORE_ADDRESS_MISALIGNED,
            TrapCause.BREAKPOINT,
        }
    )

    def on_trap(self, executor, trap: Trap, instr: Instruction,
                pc: int) -> Optional[Trap]:
        last_step = executor.last_trap_step
        last_cause = executor.last_trap_cause
        if last_step is None or last_cause is None:
            return trap
        if executor.current_step - last_step > self.history_window:
            return trap
        if last_cause not in self._QUEUED_CAUSES:
            return trap
        if trap.cause not in self._OVERWRITTEN_CAUSES:
            return trap
        self.note_effect(executor)
        return Trap(last_cause, tval=trap.tval)


class CacheCoherencyBug(InjectedBug):
    """V4: undetected cache coherency violation (CWE-1202, CVA6)."""

    bug_id = "V4"
    cwe = 1202
    processor = "cva6"
    description = "Undetected cache coherency violation"

    def on_mem_load(self, executor, address: int, size: int, value: int,
                    instr: Instruction) -> Optional[int]:
        from repro.isa.encoding import InstrClass, spec_for

        if instr.is_illegal or spec_for(instr.mnemonic).cls is not InstrClass.ATOMIC:
            return None
        if value == 0:
            return None
        if not executor.dcache.line_is_dirty(address):
            return None
        # The atomic path bypasses the dirty line in the data cache and reads
        # the stale (unwritten) copy from memory-side -- modelled as zero.
        self.note_effect(executor)
        return 0


class MissingExceptionBug(InjectedBug):
    """V5: exception not thrown when invalid addresses are accessed (CWE-1252)."""

    bug_id = "V5"
    cwe = 1252
    processor = "cva6"
    description = "Exception not thrown when invalid addresses accessed"

    _SWALLOWED = frozenset(
        {TrapCause.LOAD_ACCESS_FAULT, TrapCause.STORE_ACCESS_FAULT}
    )
    #: accesses at or above this address fall into the unmapped high region
    #: whose fault signal the broken load/store unit drops.
    _UNMAPPED_BASE = 0x1_0000_0000

    def on_trap(self, executor, trap: Trap, instr: Instruction,
                pc: int) -> Optional[Trap]:
        if trap.cause not in self._SWALLOWED:
            return trap
        if trap.tval < self._UNMAPPED_BASE:
            # Faults inside the 32-bit physical window are still reported;
            # only the decode of the high (unmapped) address range is broken.
            return trap
        self.note_effect(executor)
        return None


class UnimplementedCsrBug(InjectedBug):
    """V6: accessing unimplemented CSRs returns X-values (CWE-1281, CVA6)."""

    bug_id = "V6"
    cwe = 1281
    processor = "cva6"
    description = "Accessing unimplemented CSRs returns X-values"

    #: The debug/trigger CSRs whose access path is broken.
    _BROKEN_CSRS = frozenset({0x7A0, 0x7B0, 0x7B1})

    def on_csr_read(self, executor, address: int,
                    instr: Instruction) -> Optional[int]:
        if address not in self._BROKEN_CSRS:
            return None
        self.note_effect(executor)
        # Deterministic "X" value derived from the address.
        return (0xDEAD_BEEF_0000_0000 ^ (address * 0x9E37_79B9_7F4A_7C15)) & MASK64

    def on_csr_write(self, executor, address: int, value: int,
                     instr: Instruction) -> bool:
        # The broken CSR file also swallows writes to these registers instead
        # of raising an illegal-instruction exception.
        if address not in self._BROKEN_CSRS:
            return False
        self.note_effect(executor)
        return True


class EbreakInstretBug(InjectedBug):
    """V7: EBREAK does not increase the instruction count (CWE-1201, Rocket)."""

    bug_id = "V7"
    cwe = 1201
    processor = "rocket"
    description = "EBREAK does not increase instruction count"

    @staticmethod
    def triggers_on(instr: Instruction, word: int) -> bool:
        return instr.mnemonic == "ebreak"

    def should_count_retirement(self, executor, instr: Instruction) -> bool:
        if instr.mnemonic != "ebreak":
            return True
        self.note_effect(executor)
        return False


#: All known bugs, keyed by identifier.
BUGS_BY_ID: Dict[str, type] = {
    "V1": FenceIDecodeBug,
    "V2": IllegalInstructionExecutedBug,
    "V3": ExceptionPropagationBug,
    "V4": CacheCoherencyBug,
    "V5": MissingExceptionBug,
    "V6": UnimplementedCsrBug,
    "V7": EbreakInstretBug,
}

#: Bugs the paper attributes to CVA6 / Rocket Core respectively.
CVA6_BUG_IDS: Tuple[str, ...] = ("V1", "V2", "V3", "V4", "V5", "V6")
ROCKET_BUG_IDS: Tuple[str, ...] = ("V7",)


def make_bug(bug: Union[str, InjectedBug]) -> InjectedBug:
    """Instantiate a bug from its identifier (``"V3"``) or pass through an instance."""
    if isinstance(bug, InjectedBug):
        return bug
    key = bug.upper()
    if key not in BUGS_BY_ID:
        raise KeyError(f"unknown bug id: {bug!r} (known: {sorted(BUGS_BY_ID)})")
    return BUGS_BY_ID[key]()


def make_bugs(bugs: Iterable[Union[str, InjectedBug]]) -> List[InjectedBug]:
    """Instantiate several bugs at once."""
    return [make_bug(b) for b in bugs]
