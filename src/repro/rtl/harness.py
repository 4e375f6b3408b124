"""The DUT harness: instrumented executor, run result and model base class.

A :class:`DutModel` runs test programs exactly like the golden model but
through a :class:`DutExecutor`, which

* routes instructions through the modelled microarchitecture (caches,
  predictor, hazard tracking, functional units),
* emits branch coverage points from every modelled decision, and
* gives the injected vulnerabilities (:mod:`repro.rtl.bugs`) their hook
  points into decode, memory, CSR, trap and retirement behaviour.

Because the DUT executor inherits the golden executor's functional
semantics, a DUT with no injected bugs produces a commit trace identical to
the golden model -- the invariant the differential tester relies on (and
which the test-suite checks property-style).

Coverage is recorded as an **integer bitset**: every point name owns a
process-global bit (:mod:`repro.coverage.bitset`).  Each coverage family
is declared once, as a table from the bounded situation key its emitter
computes to that situation's *mask*, so a commit's observation collapses
to a few dict gets plus ``cov |= mask``, and point names are built only
when a table is.  A DUT's coverage space is the union of its tables
(:meth:`DutModel.coverage_space_mask`), so a point cannot be emitted
without being declared: a situation missing from its table raises
``KeyError``.  :class:`DutRunResult` carries the run's mask, and
:func:`points_of` expands it only for readers.  A DUT's coverage space,
its mask and its structural tables are per-process memos, so a trial's
fresh model rebuilds none of them.  Every instruction commits inside
:meth:`DutExecutor.run_block`, so each coverage family has exactly one
emitter; frozen per-program run digests
(``tests/sim/test_hotpath_equivalence.py``) pin what it emits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from repro.coverage.bitset import point_mask, points_of, union
from repro.coverage.csr_transitions import (
    COVERAGE_MODELS,
    TRANSITION_TABLE,
    CsrTransitionTracker,
)
from repro.isa import csr as csrdefs
from repro.isa.compiled import Superblock, dirty_word_span
from repro.isa.decoder import decode_word
from repro.isa.encoding import InstrClass, InstrFormat, SPECS, spec_for
from repro.isa.exceptions import Trap, TrapCause
from repro.isa.instruction import Instruction
from repro.isa.program import TestProgram
from repro.rtl.bugs import InjectedBug, make_bugs
from repro.rtl.microarch import (
    BranchPredictor,
    CacheModel,
    FunctionalUnitMonitor,
    HazardTracker,
)
from repro.sim.executor import (_LOAD_SIZES, _STORE_SIZES, Executor,
                                ExecutorConfig, handler_for)
from repro.sim.golden import ModelBase
from repro.sim.memory import Memory
from repro.sim.state import ArchState
from repro.sim.trace import CommitRecord, ExecutionResult
from repro.utils.bits import MASK64


# ======================================================================== config
@dataclass(frozen=True)
class DutConfig:
    """Microarchitectural parameters of a DUT model."""

    name: str = "dut"
    icache_sets: int = 32
    dcache_sets: int = 32
    cache_ways: int = 2
    bpred_entries: int = 32
    hazard_window: int = 2

    def __post_init__(self) -> None:
        for attribute in ("icache_sets", "dcache_sets", "cache_ways",
                          "bpred_entries", "hazard_window"):
            if getattr(self, attribute) <= 0:
                raise ValueError(f"{attribute} must be positive")


# ============================================================== coverage tables
# The ISA-level families (see the module docstring), built whole at import.

_ALU_CLASSES = (InstrClass.ARITH, InstrClass.LOGIC, InstrClass.SHIFT,
                InstrClass.COMPARE, InstrClass.MUL, InstrClass.DIV)
_IMM_FORMATS = (InstrFormat.I, InstrFormat.I_SHIFT, InstrFormat.S,
                InstrFormat.B, InstrFormat.U, InstrFormat.J)
_SYS_MNEMONICS = ("ecall", "ebreak", "mret", "wfi")
_FENCE_MNEMONICS = ("fence", "fence.i")
#: load/store mnemonic -> (access kind, size in bytes).
_MEM_ACCESSES = {**{m: ("load", size) for m, (size, _) in _LOAD_SIZES.items()},
                 **{m: ("store", size) for m, size in _STORE_SIZES.items()}}


def _instr_table() -> Dict[Tuple[str, bool, bool, int], int]:
    table = {}
    for mnemonic, spec in SPECS.items():
        static = point_mask("decode", mnemonic)
        if mnemonic in _SYS_MNEMONICS:
            static |= point_mask("sys", mnemonic)
        elif mnemonic in _FENCE_MNEMONICS:
            static |= point_mask("fencepath", mnemonic)
        rd = ((point_mask("operand", mnemonic, "rd_zero"),
               point_mask("operand", mnemonic, "rd_nonzero"))
              if spec.writes_rd else (0, 0))
        rs = ((0, point_mask("operand", mnemonic, "rs_equal"))
              if spec.reads_rs1 and spec.reads_rs2 else (0, 0))
        imm = (tuple(point_mask("operand", mnemonic, bucket)
                     for bucket in ("imm_neg", "imm_zero", "imm_pos"))
               if spec.fmt in _IMM_FORMATS else (0, 0, 0))
        for rd_nonzero in (False, True):
            for rs_equal in (False, True):
                for sign in (-1, 0, 1):
                    table[mnemonic, rd_nonzero, rs_equal, sign] = (
                        static | rd[rd_nonzero] | rs[rs_equal] | imm[sign + 1])
    return table


#: (mnemonic, rd != 0, rs1 == rs2, sign of imm) -> decode + operand +
#: system coverage of one legal instruction.
INSTR_TABLE = _instr_table()

#: opcode field (word bits 6:2) -> decode coverage of an illegal word.
ILLEGAL_TABLE = tuple(point_mask("decode", "illegal", f"op{opcode}")
                      for opcode in range(32))

#: ALU mnemonic -> its result-bucket masks (zero, negative, positive).
ALU_TABLE = {mnemonic: tuple(point_mask("alu", mnemonic, bucket)
                             for bucket in ("zero", "neg", "pos"))
             for mnemonic, spec in SPECS.items() if spec.cls in _ALU_CLASSES}

#: (mnemonic, taken, backward) -> coverage of one branch outcome.
BRANCH_TABLE = {
    (mnemonic, taken, backward):
        point_mask("branch", mnemonic, "taken" if taken else "nottaken")
        | (point_mask("branch", "backward_taken" if backward else "forward_taken")
           if taken else 0)
    for mnemonic, spec in SPECS.items() if spec.cls is InstrClass.BRANCH
    for taken in (False, True) for backward in (False, True)}

#: (mnemonic, alignment, region) -> coverage of one load/store address.
MEM_TABLE = {
    (mnemonic, aligned, region):
        point_mask("mem", kind, f"size{size}", aligned)
        | point_mask("mem", "region", region)
    for mnemonic, (kind, size) in _MEM_ACCESSES.items()
    for aligned in ("aligned", "unaligned")
    for region in ("code", "data", "invalid")}

#: (mnemonic, sc outcome or None, aq/rl set) -> coverage of one atomic.
ATOMIC_TABLE = {
    (mnemonic, outcome, ordered):
        point_mask("atomic", mnemonic)
        | (point_mask("atomic", "sc", outcome) if outcome else 0)
        | (point_mask("atomic", "ordered") if ordered else 0)
    for mnemonic, spec in SPECS.items() if spec.cls is InstrClass.ATOMIC
    for outcome in (("success", "fail") if mnemonic.startswith("sc.")
                    else (None,))
    for ordered in (False, True)}

#: (cause, instruction class or ``illegal_word``) -> coverage of one trap.
TRAP_TABLE = {
    (cause.name.lower(), source):
        point_mask("trap", cause.name.lower())
        | point_mask("trap", cause.name.lower(), source)
    for cause in TrapCause
    for source in [cls.value for cls in InstrClass] + ["illegal_word"]}

#: (access kind, CSR address) -> coverage of one CSR access situation.
CSR_TABLE = {
    **{(kind, address): point_mask("csr", csrdefs.csr_name(address), kind)
       for address in csrdefs.IMPLEMENTED_CSRS for kind in ("read", "write")},
    **{("unimplemented", address):
       point_mask("csr", "unimplemented", f"0x{address:03x}")
       for address in csrdefs.UNIMPLEMENTED_CSRS},
    **{("readonly_write", address): point_mask("csr", "readonly_write")
       for address in csrdefs.READ_ONLY_CSRS},
}

#: every ISA-level family: the coverage every DUT shares.
ISA_TABLES = (INSTR_TABLE, ILLEGAL_TABLE, ALU_TABLE, BRANCH_TABLE, MEM_TABLE,
              ATOMIC_TABLE, TRAP_TABLE, CSR_TABLE)

#: trap coverage of an illegal word's own illegal-instruction trap: the
#: fused loop's shortcut past ``trap_mask`` for the commonest trap.
_ILLEGAL_WORD_TRAP_MASK = TRAP_TABLE["illegal_instruction", "illegal_word"]

#: dense index of each instruction class: the models' structural loops
#: index flat lists by it, since ``InstrClass.__hash__`` is Python-level.
CLASSES = tuple(InstrClass)
CLASS_INDEX = {cls: index for index, cls in enumerate(CLASSES)}


def static_instr_mask(instr: Instruction, word: int) -> int:
    """decode + operand + system coverage of one instruction, as one mask.

    These three families are static per decoded instruction; illegal
    words are keyed by the opcode bits their decode point depends on.
    """
    if instr.raw is not None:
        return ILLEGAL_TABLE[(word >> 2) & 0x1F]
    imm = instr.imm
    return INSTR_TABLE[instr.mnemonic, instr.rd != 0, instr.rs1 == instr.rs2,
                       (imm > 0) - (imm < 0)]


def mem_mask(instr: Instruction, executor: "DutExecutor") -> int:
    """mem-family coverage of one load/store, as a mask (pre-execution)."""
    address = (executor.state.read_reg(instr.rs1) + instr.imm) & MASK64
    layout = executor.memory.layout
    if not layout.contains(address, 1):
        region = "invalid"
    elif address < layout.data_base:
        region = "code"
    else:
        region = "data"
    size = _MEM_ACCESSES[instr.mnemonic][1]
    return MEM_TABLE[instr.mnemonic,
                     "aligned" if address % size == 0 else "unaligned", region]


def atomic_mask(instr: Instruction, record: CommitRecord) -> int:
    """Atomic coverage (caller guarantees an untrapped atomic commit)."""
    outcome = (("success" if record.rd_value == 0 else "fail")
               if instr.mnemonic.startswith("sc.") else None)
    return ATOMIC_TABLE[instr.mnemonic, outcome, bool(instr.aq or instr.rl)]


def trap_mask(instr: Instruction, record: CommitRecord) -> int:
    """Trap coverage of one trapping commit, as a mask."""
    source = ("illegal_word" if instr.is_illegal
              else spec_for(instr.mnemonic).cls.value)
    return TRAP_TABLE[record.trap.name.lower(), source]


def _cut_point(block: Superblock, triggers: Tuple) -> int:
    """Offset of the block's first entry one of ``triggers`` claims, or -1.

    ``triggers`` are the ``InjectedBug.triggers_on`` declarations of one
    bug set; the result is cached in ``block.bug_cuts`` under that set, so
    a block that DUTs with different bug sets share scans once per set.
    """
    cut = block.bug_cuts.get(triggers)
    if cut is None:
        cut = block.bug_cuts[triggers] = next(
            (offset for offset, (word, instr, _) in enumerate(block.entries)
             if any(trigger(instr, word) for trigger in triggers)), -1)
    return cut


#: bound on the per-word and per-instruction plan memos (this module's
#: and the models').  Their key space is every distinct word or decoded
#: instruction a worker ever sees (bit-level mutation keeps minting new
#: encodings), so -- like the decoder's word cache -- they are cleared on
#: overflow rather than grown forever; rebuilding an entry is a few table
#: gets, so the occasional cold restart is cheaper than LRU bookkeeping.
_INSTR_MEMO_MAX = 1 << 16

#: bound on each block's ``static_masks`` memo, cleared on overflow.
_BLOCK_MEMO_MAX = 64

#: per-word DUT plan entries.  An entry is a pure function of its word
#: (decode, handler and masks all follow from it), so every block holding
#: a word shares one entry tuple.
_ENTRY_PLANS: Dict[int, Tuple] = {}


def _plan_entry(word: int, instr: Instruction) -> Tuple:
    """The DUT plan entry running ``instr`` as the instruction at ``word``.

    Uncached: :func:`_word_plan` memoises the entries of decoded words,
    and the entry of a bug's substituted decode must not take their place.
    """
    handler = handler_for(instr)
    if instr.raw is not None:
        # Illegal word: no spec, no operand/hazard bookkeeping -- the
        # handler raises the illegal-instruction trap and the loop's trap
        # arm commits it (with the trap coverage of the cause a bug may
        # have rewritten).
        return (word, instr, handler, None, None, None, None, None,
                False, False, False, None, False, False,
                static_instr_mask(instr, word))
    spec = spec_for(instr.mnemonic)
    cls = spec.cls
    is_mem = cls is InstrClass.LOAD or cls is InstrClass.STORE
    return (
        word, instr, handler, spec, cls,
        instr.rd if spec.writes_rd else None,
        instr.rs1 if spec.reads_rs1 else None,
        instr.rs2 if spec.reads_rs2 else None,
        is_mem,
        # The handler emits dcache or CSR coverage through ``self._cov``.
        is_mem or cls is InstrClass.ATOMIC or cls is InstrClass.CSR,
        cls is InstrClass.MUL or cls is InstrClass.DIV,
        # ALU result-bucket masks (zero/neg/pos): the fused loop picks
        # one with integer tests on the result.
        ALU_TABLE[instr.mnemonic] if cls in _ALU_CLASSES else None,
        cls is InstrClass.ATOMIC,
        cls is InstrClass.BRANCH,
        static_instr_mask(instr, word),
    )


def _word_plan(word: int) -> Tuple:
    """The DUT plan entry of ``word``, decoded as the compiled trace does."""
    entry = _ENTRY_PLANS.get(word)
    if entry is None:
        if len(_ENTRY_PLANS) >= _INSTR_MEMO_MAX:
            _ENTRY_PLANS.clear()
        entry = _ENTRY_PLANS[word] = _plan_entry(word, decode_word(word))
    return entry


def _block_dut_plan(block: Superblock) -> Tuple[Tuple, ...]:
    """Attach (and return) the per-entry DUT execution plan of one superblock.

    Everything static per instruction -- spec, class predicates, register
    fields, the decode/operand/system mask -- is resolved once per word
    and cached on the block, so the fused DUT loop looks none of it up.
    Illegal words fuse too (their handler raises the
    deterministic illegal-instruction trap); their plan entries carry a
    ``None`` spec and only the static fetch/decode mask.  The plan is DUT-
    and bug-independent; one block serves every DUT model in the process.
    """
    memo = _ENTRY_PLANS
    block.dut_plan = tuple(memo.get(word) or _word_plan(word)
                           for word, _, _ in block.entries)
    return block.dut_plan


# =================================================================== run result
@dataclass(frozen=True)
class DutRunResult:
    """Outcome of running one test on a DUT: trace + coverage mask + bug effects."""

    execution: ExecutionResult
    coverage: int
    fired_bugs: FrozenSet[str]
    bug_effect_steps: Dict[str, int] = field(default_factory=dict)

    @property
    def coverage_count(self) -> int:
        return self.coverage.bit_count()

    def coverage_points(self) -> FrozenSet[str]:
        """The run's coverage as point names (for readers, not the loop)."""
        return points_of(self.coverage)


# ==================================================================== executor
def _components(config: DutConfig) -> Tuple[CacheModel, CacheModel,
                                            BranchPredictor, HazardTracker,
                                            FunctionalUnitMonitor]:
    """The microarchitectural components of a DUT with ``config``."""
    return (CacheModel("icache", config.icache_sets, config.cache_ways),
            CacheModel("dcache", config.dcache_sets, config.cache_ways),
            BranchPredictor("bpred", config.bpred_entries),
            HazardTracker("hazard", config.hazard_window),
            FunctionalUnitMonitor("fu"))


class DutExecutor(Executor):
    """Golden-semantics executor instrumented with microarchitecture, coverage and bugs."""

    def __init__(self, state: ArchState, memory: Memory, config: ExecutorConfig,
                 dut: "DutModel") -> None:
        super().__init__(state, memory, config)
        self.dut = dut
        self.icache, self.dcache, self.bpred, self.hazards, self.fu = (
            _components(dut.config))
        self.bugs: List[InjectedBug] = dut.bugs
        #: static trigger declarations of the bugs with decode/retirement
        #: hooks: a block stops before the first entry they declare, which
        #: then runs alone with those hooks applied (see run_block).
        self._bug_triggers = tuple(
            bug.triggers_on for bug in self.bugs
            if bug.triggers_on is not InjectedBug.triggers_on)
        #: CSR-transition tracker (``None`` under the base coverage model).
        #: Executors are built fresh per run, so the tracker starts every
        #: program from the architectural reset classes.
        self.csr_tracker: Optional[CsrTransitionTracker] = (
            CsrTransitionTracker(memory.layout)
            if dut.coverage_model == "csr" else None)
        # Bug / run bookkeeping the bug hooks rely on.
        self._step_index = 0
        self.last_store_step: Optional[int] = None
        self.last_trap_step: Optional[int] = None
        self.last_trap_cause: Optional[TrapCause] = None
        self.bug_effects: Dict[str, List[int]] = {}
        #: decode results a bug's ``on_decode`` replaced so far.
        self._substitutions = 0
        #: free-form per-run scratch space for DUT-specific structural coverage.
        self.dut_scratch: Dict[str, object] = {}
        #: accumulated coverage bitset (see :mod:`repro.coverage.bitset`).
        self._cov = 0
        #: icache line of the most recent fetch plus its guaranteed re-hit
        #: mask -- the icache is only ever touched by fetches, so a fetch
        #: to the same line as the previous one is a hit that leaves the
        #: LRU state untouched and the fused loop can skip the cache model
        #: entirely (see :meth:`CacheModel.repeat_hit_mask`).
        self._fetch_line = -1
        self._fetch_rehit = 0

    # ------------------------------------------------------------ bug plumbing
    @property
    def current_step(self) -> int:
        return self._step_index

    def note_bug_effect(self, bug_id: str) -> None:
        self.bug_effects.setdefault(bug_id, []).append(self._step_index)

    # ------------------------------------------------------------------ decode
    def _decode_hooks(self, entry: Tuple) -> Tuple:
        """The plan entry a bug-declared block leader runs as: ``entry``
        itself, or an uncached one for the decode a bug's ``on_decode``
        substituted (later bugs see the earlier substitution)."""
        word, instr = entry[0], entry[1]
        decoded = instr
        for bug in self.bugs:
            replacement = bug.on_decode(self, decoded, word)
            if replacement is not None:
                decoded = replacement
                self._substitutions += 1
        return entry if decoded is instr else _plan_entry(word, decoded)

    # ------------------------------------------------------------------ memory
    def _mem_load(self, address: int, size: int, signed: bool,
                  instr: Instruction) -> int:
        value = self.memory.load(address, size, signed)
        self._record_dcache(address, False)
        for bug in self.bugs:
            override = bug.on_mem_load(self, address, size, value, instr)
            if override is not None:
                value = override
        return value

    def _mem_store(self, address: int, value: int, size: int,
                   instr: Instruction) -> None:
        self.memory.store(address, value, size)
        self._record_dcache(address, True)
        self.last_store_step = self._step_index

    def _record_dcache(self, address: int, is_store: bool) -> None:
        """Coverage of one data-cache access (bitset fast path)."""
        self._cov |= self.dcache.access_mask(address, is_store)

    # --------------------------------------------------------------------- CSR
    def _record_csr(self, kind: str, address: int) -> None:
        """Coverage of one CSR access situation (bitset fast path)."""
        self._cov |= CSR_TABLE[kind, address]

    def _csr_read(self, address: int, instr: Instruction) -> int:
        for bug in self.bugs:
            override = bug.on_csr_read(self, address, instr)
            if override is not None:
                self._record_csr("unimplemented", address)
                return override
        try:
            value = self.state.read_csr(address)
        except Trap:
            if address in csrdefs.UNIMPLEMENTED_CSRS:
                self._record_csr("unimplemented", address)
            raise
        self._record_csr("read", address)
        return value

    def _csr_write(self, address: int, value: int, instr: Instruction) -> None:
        for bug in self.bugs:
            if bug.on_csr_write(self, address, value, instr):
                self._record_csr("unimplemented", address)
                return
        try:
            self.state.write_csr(address, value)
        except Trap:
            if csrdefs.is_read_only_csr(address):
                self._record_csr("readonly_write", address)
            elif address in csrdefs.UNIMPLEMENTED_CSRS:
                self._record_csr("unimplemented", address)
            raise
        self._record_csr("write", address)

    # -------------------------------------------------------------------- traps
    def _trap_cause(self, trap: Trap, instr: Instruction, pc: int) -> Optional[Trap]:
        """Map a raised trap to the trap that is architecturally reported.

        Each bug's ``on_trap`` sees the previous one's result.  ``None``
        suppresses the trap entirely (the instruction then commits as a
        no-op writing 0 to ``rd`` if it has one) -- this models defects
        such as V5 where an exception is silently swallowed.
        """
        current: Optional[Trap] = trap
        for bug in self.bugs:
            if current is None:
                break
            current = bug.on_trap(self, current, instr, pc)
        return current

    # ------------------------------------------------------------- superblocks
    def run_block(self, block: Superblock, records: list) -> Optional[tuple]:
        """Fused superblock execution with inline coverage emission.

        Every DUT instruction commits here, so this loop is the one
        emitter of every coverage family.  Per plan entry it emits the
        fetch coverage, executes, commits and observes the commit, with
        the static table lookups pre-resolved into the block's plan and
        the coverage bitset held in a local.  The stateful components
        whose inputs depend on run state (icache LRU, dcache via the
        memory hooks) are consulted per instruction, in commit order.
        What depends only on the block's words runs once per block: the
        decode/operand/system and hazard coverage, memoised on the block
        per ``(hazard window size, commits run, incoming window)`` with
        the outgoing window (``Superblock.static_masks``), the model's
        structural emitter and the retirement counters.  Dirty stores
        are checked against :attr:`code_window`.

        Injected bugs hook in where they act (see
        :class:`~repro.rtl.bugs.InjectedBug`):

        * ``on_mem_load``, ``on_csr_read`` and ``on_csr_write`` fire inside
          the handlers;
        * ``on_trap`` fires in the trap arm via :meth:`_trap_cause`; the arm
          commits the reported trap -- or, when a bug swallows it, the
          :meth:`_commit_suppressed_trap` record, which then takes the
          ordinary non-trap coverage arm;
        * ``on_decode`` and ``should_count_retirement`` only act on entries
          their bug's ``triggers_on`` declares.  A block stops before the
          first such entry; a block led by one runs that entry alone,
          decoded through ``on_decode`` (a substituted decode gets its own
          uncached plan entry), and asks ``should_count_retirement``
          whether it retires once it has committed.

        Under the ``csr`` coverage model the transition tracker observes
        the trap commits and the last commit, the only records that carry
        ``trap`` or ``csr_addr``/``csr_value`` (only a CSR tail writes a
        CSR), in commit order.
        """
        plan = block.dut_plan
        if plan is None:
            plan = _block_dut_plan(block)
        entries = plan
        owner = block  # whose cached plans and masks ``plan`` matches
        hooked = False
        if self._bug_triggers:
            cut = _cut_point(block, self._bug_triggers)
            if cut == 0:
                hooked = True
                entries = (self._decode_hooks(plan[0]),)
                if entries[0] is not plan[0]:
                    plan, owner = entries, None
            elif cut > 0:
                entries = plan[:cut]
        bugs = self.bugs
        tracker = self.csr_tracker
        state = self.state
        regs = state.regs
        csrs = state.csrs
        icache = self.icache
        icache_access = icache.access_mask
        icache_repeat = icache.repeat_hit_mask
        line_bytes = icache.line_bytes
        append = records.append
        block_start = len(records)
        count_trapped = self.config.count_trapped_instructions
        pc = state.pc
        cov = self._cov
        dirtied = None
        # Cross-block fetch-line state: a fetch to the line the previous
        # fetch touched is a guaranteed re-hit (the icache is only ever
        # accessed by fetches), so it reduces to ``cov |= rehit`` with no
        # cache-model call and no LRU mutation.
        fetch_line = self._fetch_line
        fetch_rehit = self._fetch_rehit
        # Retirement counters are batched like the base run_block: nothing
        # before a block's tail reads MINSTRET/MCYCLE, so two dict writes
        # at exit replace 2-per-entry.  A CSR tail can read or write them,
        # so the batch is flushed (and restarted) right before the tail
        # entry executes; ``commits`` equals the entry index, so the flush
        # triggers exactly there.
        flush_at = block.length - 1 if block.csr_tail else -1
        commits = 0
        uncounted = 0  # commits excluded from minstret
        for (word, instr, handler, spec, cls, rd, rs1, rs2, is_mem,
             syncs_cov, is_muldiv, alu3, is_atomic, is_branch, _) in entries:
            line = pc // line_bytes
            if line == fetch_line:
                cov |= fetch_rehit
            else:
                cov |= icache_access(pc, False)
                fetch_line = line
                fetch_rehit = icache_repeat(pc)
            if is_muldiv:
                operands = (regs[rs1] if rs1 is not None else 0,
                            regs[rs2] if rs2 is not None else 0)
            if is_mem:
                cov |= mem_mask(instr, self)
            trap = None
            if commits == flush_at:
                # CSR tail: flush the batched counters so its CSR reads
                # and writes are architecturally exact, then restart the
                # batch (see Executor.run_block).
                csrs[csrdefs.MINSTRET] = (
                    csrs[csrdefs.MINSTRET] + commits - uncounted) & MASK64
                csrs[csrdefs.MCYCLE] = (csrs[csrdefs.MCYCLE] + commits) & MASK64
                commits = 0
                uncounted = 0
                flush_at = -1
            if syncs_cov:
                # dcache / CSR coverage is recorded inside the handler via
                # ``self._cov``; keep it coherent across the handler call.
                self._cov = cov
                try:
                    record = handler(self, instr, pc, word)
                except Trap as raised:
                    trap = raised
                cov = self._cov
            else:
                try:
                    record = handler(self, instr, pc, word)
                except Trap as raised:
                    trap = raised
            if trap is not None and bugs:
                # on_trap hooks: V3 rewrites the cause; V5 swallows the
                # trap, and its no-op commit takes the non-trap arm.
                trap = self._trap_cause(trap, instr, pc)
                if trap is None:
                    record = self._commit_suppressed_trap(pc, word, instr)
            if trap is None:
                rd_value = record.rd_value
                if rd_value is not None:
                    if alu3 is not None:
                        # bucket: zero / neg (bit 63 set) / pos.
                        cov |= (alu3[0] if rd_value == 0 else
                                alu3[1] if rd_value >> 63 else alu3[2])
                    if is_muldiv:
                        cov |= self.fu.observe_mask(cls, operands[0],
                                                    operands[1], rd_value)
                if is_branch:
                    taken = record.next_pc != (pc + 4) & MASK64
                    cov |= BRANCH_TABLE[instr.mnemonic, taken,
                                        record.next_pc < pc]
                    cov |= self.bpred.update_mask(pc, taken)
                elif is_atomic:
                    cov |= atomic_mask(instr, record)
            else:
                # Break the trap -> traceback -> this frame -> ``trap``
                # cycle, which would keep this executor, its memory and
                # the run's records alive until the cycle collector ran.
                trap.with_traceback(None)
                cause = trap.cause
                csrs[csrdefs.MEPC] = pc
                csrs[csrdefs.MCAUSE] = int(cause)
                csrs[csrdefs.MTVAL] = trap.tval & MASK64
                record = CommitRecord(pc, word, instr.mnemonic, None, None,
                                      cause, None, None, None, None, None,
                                      (pc + 4) & MASK64, trap.tval & MASK64)
                if not count_trapped:
                    uncounted += 1
                if spec is None and cause is TrapCause.ILLEGAL_INSTRUCTION:
                    cov |= _ILLEGAL_WORD_TRAP_MASK
                else:
                    cov |= trap_mask(instr, record)
                if tracker is not None:
                    cov |= tracker.observe_mask(record)
                self.last_trap_step = self._step_index
                self.last_trap_cause = cause
            if hooked and not all(bug.should_count_retirement(self, instr)
                                  for bug in bugs):
                uncounted = 1  # the lone entry: one commit, off minstret
            commits += 1
            append(record)
            self._step_index += 1
            pc += 4
            mem_addr = record.mem_addr
            if mem_addr is not None:
                dirtied = dirty_word_span(mem_addr, record.mem_size or 1,
                                          *self.code_window)
                if dirtied is not None:
                    break  # store hit the code window: stop fused execution
        # Each entry's decode/operand/system mask and its hazard check
        # are fixed before it executes, so they depend only on the
        # entries run and the hazard window they met: one memo lookup per
        # block replaces them.  The key holds the window size, as DUTs
        # with different windows share blocks; a bug's substituted
        # decode is not the block's, so it gets a throwaway memo.
        hazards = self.hazards
        recent = hazards._recent
        memo = block.static_masks if owner is not None else {}
        run = len(records) - block_start
        key = (hazards.window, run, *recent)
        static = memo.get(key)
        if static is None:
            if len(memo) >= _BLOCK_MEMO_MAX:
                memo.clear()
            mask = 0
            for entry in entries[:run]:  # illegal words skip the window
                mask |= entry[14]
                if entry[3] is not None:
                    mask |= hazards.observe_mask(entry[5], entry[6], entry[7])
            static = memo[key] = (mask, tuple(recent))
        else:
            recent[:] = static[1]
        cov |= static[0]
        if tracker is not None and record.csr_addr is not None:
            # A CSR tail's write: after the trap commits (observed in the
            # trap arm), the only record that can move a tracked CSR.
            cov |= tracker.observe_mask(record)
        # Structural coverage is a pure function of the commit records (plus
        # the model's own scratch state, which it advances in record order),
        # so it batches into one call per block instead of one per commit.
        cov |= self.dut.structural_block_mask(records, block_start, plan, self,
                                              owner)
        csrs[csrdefs.MINSTRET] = (csrs[csrdefs.MINSTRET] + commits - uncounted) & MASK64
        csrs[csrdefs.MCYCLE] = (csrs[csrdefs.MCYCLE] + commits) & MASK64
        self._cov = cov
        self._fetch_line = fetch_line
        self._fetch_rehit = fetch_rehit
        state.pc = record.next_pc
        return dirtied

    # ------------------------------------------------------------- loop replay
    def periodic_state(self) -> tuple:
        """The architectural snapshot plus the DUT state that feeds back.

        Beyond :meth:`Executor.periodic_state`: both caches' LRU sets, the
        predictor counters, the hazard window, the models' scratch state,
        the CSR-transition classes, the fetch-line re-hit state, the last
        trap cause, the set of bugs that have fired and the number of
        decode substitutions so far.  Every other input of a bug's
        decision is in the value, so a period in which V3-V7 act repeats
        like any other (:meth:`replay_period` copies its effects); a
        period in which a bug replaces a decode result never compares
        equal, because the replay re-decodes each copied word as the
        compiled trace does.  The distances to the last store and trap
        are kept only up to one past the longest history window the bugs
        declare, and not at all when none does.
        """
        tracker = self.csr_tracker
        snapshot = (
            super().periodic_state(),
            {index: tuple(ways) for index, ways in self.icache._sets.items()},
            {index: tuple(ways) for index, ways in self.dcache._sets.items()},
            dict(self.bpred._counters), tuple(self.hazards._recent),
            dict(self.dut_scratch),
            None if tracker is None else dict(tracker._classes),
            self._fetch_line, self._fetch_rehit, self.last_trap_cause,
            frozenset(self.bug_effects), self._substitutions)
        window = max((bug.history_window for bug in self.bugs), default=0)
        if window:
            step = self._step_index
            snapshot += tuple(None if last is None else min(step - last, window + 1)
                              for last in (self.last_store_step, self.last_trap_step))
        return snapshot

    def replay_period(self, records: list, period: int, copies: int,
                      counter_steps: Tuple[int, int]) -> None:
        """Replay as :meth:`Executor.replay_period`, then bring the DUT's
        step-dependent state and coverage up to the copies.

        The step index advances by the copies' commits.  A store or trap
        inside the verified period recurs in every copy, so its step
        moves with the last one; older ones stay put.  So does each bug
        effect of the period: every copy appends it to ``bug_effects`` at
        its shifted step.  The only coverage that depends on the step
        index is structural (BOOM's ROB, issue-queue, register-file,
        load/store-queue and lane points, CVA6's scoreboard and commit
        ports), and it repeats every :attr:`DutModel.step_cycle` steps:
        copy ``k + cycle // gcd(period, cycle)`` is a multiple of the
        cycle after copy ``k``, so :meth:`DutModel.structural_block_mask`
        covers only that many copies (none without a cycle).
        """
        first = len(records)
        super().replay_period(records, period, copies, counter_steps)
        span = copies * period
        self._step_index += span
        start = first - period
        if self.last_store_step is not None and self.last_store_step >= start:
            self.last_store_step += span
        if self.last_trap_step is not None and self.last_trap_step >= start:
            self.last_trap_step += span
        for steps in self.bug_effects.values():
            if steps[-1] >= start:
                recent = [step for step in steps if step >= start]
                steps.extend([step + shift
                              for shift in range(period, span + 1, period)
                              for step in recent])
        cycle = self.dut.step_cycle
        if cycle:
            plan = tuple(_word_plan(r.word) for r in records[start:first])
            self._cov |= self.dut.structural_block_mask(
                records, first, plan, self, copies=min(copies, cycle // gcd(period, cycle)))


# ======================================================================= model
#: per-process memos: coverage space mask and names per (model class,
#: DutConfig, coverage model), structural tables per model class.
_SPACE_MASKS: Dict[tuple, int] = {}
_SPACES: Dict[tuple, FrozenSet[str]] = {}
_STRUCTURAL_TABLES: Dict[type, dict] = {}


class DutModel(ModelBase):
    """Base class of the three processor models."""

    #: subclasses override with their default configuration.
    default_config = DutConfig()
    #: steps after which the model's step-indexed structural points
    #: repeat (BOOM and CVA6 derive it from their sizes); 0 when no point
    #: depends on the step, so a replayed copy adds nothing.
    step_cycle = 0

    def __init__(self, config: Optional[DutConfig] = None,
                 bugs: Sequence[Union[str, InjectedBug]] = (),
                 executor_config: Optional[ExecutorConfig] = None,
                 coverage_model: str = "base") -> None:
        super().__init__(executor_config)
        if coverage_model not in COVERAGE_MODELS:
            raise ValueError(f"unknown coverage model {coverage_model!r}; "
                             f"available: {COVERAGE_MODELS}")
        self.config = config or self.default_config
        self.bugs = make_bugs(bugs)
        #: ``"base"`` = hit-set coverage only; ``"csr"`` additionally tracks
        #: ProcessorFuzz-style CSR value-class transitions (docs/coverage.md).
        self.coverage_model = coverage_model

    @property
    def name(self) -> str:  # type: ignore[override]
        return self.config.name

    # -------------------------------------------------------------- coverage space
    def structural_block_mask(self, records: list, start: int, plan: Tuple,
                              executor: DutExecutor, block=None,
                              copies: int = 1) -> int:
        """DUT-specific structural coverage of a run of commits, as one mask.

        Called once per superblock by :meth:`DutExecutor.run_block` with
        the commit records the block appended (``records[start:]`` --
        possibly fewer than ``len(plan)`` entries after a dirty-store
        abort or a cut before a bug-declared entry; a commit's step is its
        index) and the block's execution plan, whose entries carry the
        decoded instructions; and, for a model with a :attr:`step_cycle`,
        once per replayed loop without a block, to cover ``copies``
        repetitions of the period's ``plan`` from ``start`` (see
        :meth:`DutExecutor.replay_period`).  The three processor models
        override it with a table-driven loop over the commits in order
        (precomputed per-point masks, no string building per commit),
        caching the per-entry plans on ``block.model_plans`` when a block
        is given; the base model has no structural coverage.
        """
        return 0

    def _build_structural_tables(self) -> dict:
        """The model's structural coverage tables: masks only, keyed as its
        :meth:`structural_block_mask` indexes them (none for the base)."""
        return {}

    def _structural_tables(self) -> dict:
        """:meth:`_build_structural_tables`, built once per model class."""
        tables = _STRUCTURAL_TABLES.get(type(self))
        if tables is None:
            tables = _STRUCTURAL_TABLES[type(self)] = (
                self._build_structural_tables())
        return tables

    def _space_key(self) -> tuple:
        return (type(self), self.config, self.coverage_model)

    def coverage_space_mask(self) -> int:
        """The union of every coverage table the model emits from: the
        ISA-level families, its components', its structural tables and,
        under the ``csr`` model, the CSR transitions (per-process memo)."""
        key = self._space_key()
        mask = _SPACE_MASKS.get(key)
        if mask is None:
            tables = [ISA_TABLES, self._structural_tables()]
            tables += [component.table for component in _components(self.config)]
            if self.coverage_model == "csr":
                tables.append(TRANSITION_TABLE)
            mask = _SPACE_MASKS[key] = union(tables)
        return mask

    def coverage_space(self) -> FrozenSet[str]:
        """:meth:`coverage_space_mask` as point names (per-process memo)."""
        key = self._space_key()
        space = _SPACES.get(key)
        if space is None:
            space = _SPACES[key] = points_of(self.coverage_space_mask())
        return space

    @property
    def total_coverage_points(self) -> int:
        return self.coverage_space_mask().bit_count()

    # ------------------------------------------------------------------ run hooks
    def _make_executor(self, state: ArchState, memory: Memory) -> Executor:
        return DutExecutor(state, memory, self.executor_config, dut=self)

    def _prepare_run(self, executor: Executor, program: TestProgram) -> None:
        for bug in self.bugs:
            bug.reset()

    # ------------------------------------------------------------------------ run
    def run(self, program: TestProgram,
            max_steps: Optional[int] = None) -> DutRunResult:  # type: ignore[override]
        execution, executor = self._run_with_executor(program, max_steps)
        first_steps = {bug_id: steps[0] for bug_id, steps in executor.bug_effects.items()}
        return DutRunResult(
            execution=execution,
            coverage=executor._cov,
            fired_bugs=frozenset(executor.bug_effects),
            bug_effect_steps=first_steps,
        )
