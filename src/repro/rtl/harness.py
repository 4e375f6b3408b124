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
process-global bit (:mod:`repro.coverage.bitset`), each emission family
memoises *masks* keyed by a bounded situation key, and a commit's
observation collapses to a few dict gets plus ``cov |= mask``.  Point
names are built only on a memo miss; :class:`DutRunResult` carries the
run's mask, and :func:`points_of` expands it only for readers.  A DUT's
coverage space, its mask and its structural tables are per-process memos,
so a trial's fresh model rebuilds none of them.  Frozen per-program run
digests (``tests/sim/test_hotpath_equivalence.py``) pin the emitted
coverage on both the fused and the per-step loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, Union

from repro.coverage.bitset import mask_of, point_bit, point_mask, points_of
from repro.coverage.csr_transitions import (
    COVERAGE_MODELS,
    CsrTransitionTracker,
    transition_space,
)
from repro.coverage.points import coverage_point
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
from repro.utils.bits import MASK64, to_signed


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


# ============================================================== coverage families
# Shared (ISA-level) coverage families.  Each family provides a space
# enumeration and the point-name builders its mask memo (below) calls on a
# miss; the two must stay consistent, which the property-based tests check
# by asserting emitted ⊆ enumerated.

_ALU_CLASSES = (InstrClass.ARITH, InstrClass.LOGIC, InstrClass.SHIFT,
                InstrClass.COMPARE, InstrClass.MUL, InstrClass.DIV)
_IMM_FORMATS = (InstrFormat.I, InstrFormat.I_SHIFT, InstrFormat.S,
                InstrFormat.B, InstrFormat.U, InstrFormat.J)
_MEM_SIZES = (1, 2, 4, 8)
_SYS_MNEMONICS = ("ecall", "ebreak", "mret", "wfi")
_FENCE_MNEMONICS = ("fence", "fence.i")


def decode_space() -> Set[str]:
    points = {coverage_point("decode", m) for m in SPECS}
    points.update(coverage_point("decode", "illegal", f"op{i}") for i in range(32))
    return points


def operand_space() -> Set[str]:
    points: Set[str] = set()
    for mnemonic, spec in SPECS.items():
        if spec.writes_rd:
            points.add(coverage_point("operand", mnemonic, "rd_zero"))
            points.add(coverage_point("operand", mnemonic, "rd_nonzero"))
        if spec.reads_rs1 and spec.reads_rs2:
            points.add(coverage_point("operand", mnemonic, "rs_equal"))
        if spec.fmt in _IMM_FORMATS:
            points.add(coverage_point("operand", mnemonic, "imm_neg"))
            points.add(coverage_point("operand", mnemonic, "imm_zero"))
            points.add(coverage_point("operand", mnemonic, "imm_pos"))
    return points


def alu_space() -> Set[str]:
    points: Set[str] = set()
    for mnemonic, spec in SPECS.items():
        if spec.cls in _ALU_CLASSES:
            for bucket in ("zero", "neg", "pos"):
                points.add(coverage_point("alu", mnemonic, bucket))
    return points


def _alu_bucket(rd_value: int) -> str:
    signed = to_signed(rd_value)
    return "zero" if signed == 0 else ("neg" if signed < 0 else "pos")


def branch_space() -> Set[str]:
    points: Set[str] = set()
    for mnemonic, spec in SPECS.items():
        if spec.cls is InstrClass.BRANCH:
            points.add(coverage_point("branch", mnemonic, "taken"))
            points.add(coverage_point("branch", mnemonic, "nottaken"))
    points.add(coverage_point("branch", "backward_taken"))
    points.add(coverage_point("branch", "forward_taken"))
    return points


def _branch_points_for(mnemonic: str, taken: bool,
                       direction: Optional[str]) -> Tuple[str, ...]:
    built = [coverage_point("branch", mnemonic,
                            "taken" if taken else "nottaken")]
    if direction is not None:
        built.append(coverage_point("branch", direction))
    return tuple(built)


def mem_space() -> Set[str]:
    points: Set[str] = set()
    for kind in ("load", "store"):
        for size in _MEM_SIZES:
            points.add(coverage_point("mem", kind, f"size{size}", "aligned"))
            points.add(coverage_point("mem", kind, f"size{size}", "unaligned"))
    for region in ("code", "data", "invalid"):
        points.add(coverage_point("mem", "region", region))
    return points


def _mem_situation(instr: Instruction, spec,
                   executor: "DutExecutor") -> Tuple[str, int, str, str]:
    """Classify one load/store pre-execution: (kind, size, aligned, region)."""
    if spec.cls is InstrClass.LOAD:
        kind, size = "load", _LOAD_SIZES[instr.mnemonic][0]
    else:
        kind, size = "store", _STORE_SIZES[instr.mnemonic]
    address = (executor.state.read_reg(instr.rs1) + instr.imm) & MASK64
    aligned = "aligned" if address % size == 0 else "unaligned"
    layout = executor.memory.layout
    if not layout.contains(address, 1):
        region = "invalid"
    elif address < layout.data_base:
        region = "code"
    else:
        region = "data"
    return kind, size, aligned, region


def _mem_points_for(kind: str, size: int, aligned: str,
                    region: str) -> Tuple[str, ...]:
    return (coverage_point("mem", kind, f"size{size}", aligned),
            coverage_point("mem", "region", region))


def atomic_space() -> Set[str]:
    points: Set[str] = set()
    for mnemonic, spec in SPECS.items():
        if spec.cls is InstrClass.ATOMIC:
            points.add(coverage_point("atomic", mnemonic))
    points.add(coverage_point("atomic", "sc", "success"))
    points.add(coverage_point("atomic", "sc", "fail"))
    points.add(coverage_point("atomic", "ordered"))
    return points


def _atomic_situation(instr: Instruction,
                      record: CommitRecord) -> Tuple[str, Optional[str], bool]:
    outcome = (("success" if record.rd_value == 0 else "fail")
               if instr.mnemonic.startswith("sc.") else None)
    return instr.mnemonic, outcome, bool(instr.aq or instr.rl)


def _atomic_points_for(mnemonic: str, outcome: Optional[str],
                       ordered: bool) -> Tuple[str, ...]:
    built = [coverage_point("atomic", mnemonic)]
    if outcome is not None:
        built.append(coverage_point("atomic", "sc", outcome))
    if ordered:
        built.append(coverage_point("atomic", "ordered"))
    return tuple(built)


def trap_space() -> Set[str]:
    points = {coverage_point("trap", cause.name.lower()) for cause in TrapCause}
    for cause in TrapCause:
        for cls in InstrClass:
            points.add(coverage_point("trap", cause.name.lower(), cls.value))
        points.add(coverage_point("trap", cause.name.lower(), "illegal_word"))
    return points


def _trap_situation(instr: Instruction, record: CommitRecord) -> Tuple[str, str]:
    cause = record.trap.name.lower()
    source = ("illegal_word" if instr.is_illegal
              else spec_for(instr.mnemonic).cls.value)
    return cause, source


def _trap_points_for(cause: str, source: str) -> Tuple[str, ...]:
    return (coverage_point("trap", cause), coverage_point("trap", cause, source))


def csr_space() -> Set[str]:
    points: Set[str] = set()
    for address in csrdefs.IMPLEMENTED_CSRS:
        name = csrdefs.csr_name(address)
        points.add(coverage_point("csr", name, "read"))
        points.add(coverage_point("csr", name, "write"))
    for address in csrdefs.UNIMPLEMENTED_CSRS:
        points.add(coverage_point("csr", "unimplemented", f"0x{address:03x}"))
    points.add(coverage_point("csr", "readonly_write"))
    return points


def system_space() -> Set[str]:
    points = {coverage_point("sys", m) for m in _SYS_MNEMONICS}
    points.update(coverage_point("fencepath", m) for m in _FENCE_MNEMONICS)
    return points


def common_space() -> Set[str]:
    """The ISA-level coverage space shared by every DUT."""
    space: Set[str] = set()
    space |= decode_space()
    space |= operand_space()
    space |= alu_space()
    space |= branch_space()
    space |= mem_space()
    space |= atomic_space()
    space |= trap_space()
    space |= csr_space()
    space |= system_space()
    return space


# ================================================================= mask faces
# The emitters the DUT executor runs.  Each memo is keyed by a bounded
# situation key; a miss builds the situation's point names once and
# converts them through the global bit registry.

#: bound on the Instruction-keyed memos below.  Their key space is every
#: distinct decoded instruction a worker ever sees (bit-level mutation keeps
#: minting new encodings), so -- like the decoder's word cache -- they are
#: cleared on overflow rather than grown forever; recomputing an entry is a
#: few dict gets, so the occasional cold restart is cheaper than LRU
#: bookkeeping at this size.
_INSTR_MEMO_MAX = 1 << 16

_STATIC_MASKS: Dict[object, int] = {}


def _static_points(instr: Instruction) -> List[str]:
    """decode + operand + system point names of one legal instruction."""
    mnemonic = instr.mnemonic
    spec = spec_for(mnemonic)
    points = [coverage_point("decode", mnemonic)]
    if spec.writes_rd:
        points.append(coverage_point(
            "operand", mnemonic, "rd_zero" if instr.rd == 0 else "rd_nonzero"))
    if spec.reads_rs1 and spec.reads_rs2 and instr.rs1 == instr.rs2:
        points.append(coverage_point("operand", mnemonic, "rs_equal"))
    if spec.fmt in _IMM_FORMATS:
        bucket = ("imm_neg" if instr.imm < 0
                  else "imm_zero" if instr.imm == 0 else "imm_pos")
        points.append(coverage_point("operand", mnemonic, bucket))
    if mnemonic in _SYS_MNEMONICS:
        points.append(coverage_point("sys", mnemonic))
    elif mnemonic in _FENCE_MNEMONICS:
        points.append(coverage_point("fencepath", mnemonic))
    return points


def static_instr_mask(instr: Instruction, word: int) -> int:
    """decode + operand + system coverage of one instruction, as one mask.

    These three families are static per decoded instruction, so the
    per-commit cost is a single dict get.  Illegal words are keyed by the
    opcode bits their decode point depends on; legal instructions key by
    value (bug-substituted instructions hash equal to their cached twins).
    """
    key: object = (word >> 2) & 0x1F if instr.raw is not None else instr
    mask = _STATIC_MASKS.get(key)
    if mask is None:
        if instr.is_illegal:
            mask = point_mask("decode", "illegal", f"op{(word >> 2) & 0x1F}")
        else:
            mask = mask_of(_static_points(instr))
        if len(_STATIC_MASKS) >= _INSTR_MEMO_MAX:
            _STATIC_MASKS.clear()
        _STATIC_MASKS[key] = mask
    return mask


#: per-instruction decode plan: everything the fetch/decode observation
#: needs that is static per decoded instruction, resolved once --
#: ``(static_mask, spec|None, rd_written|None, rs1_read|None, rs2_read|None,
#: is_mem)``.  Illegal words share one plan per opcode-bit pattern.
_DECODE_PLANS: Dict[object, Tuple] = {}


def _decode_plan(instr: Instruction, word: int) -> Tuple:
    key: object = (word >> 2) & 0x1F if instr.raw is not None else instr
    plan = _DECODE_PLANS.get(key)
    if plan is None:
        static = static_instr_mask(instr, word)
        if instr.raw is not None:
            plan = (static, None, None, None, None, False)
        else:
            spec = spec_for(instr.mnemonic)
            cls = spec.cls
            plan = (static, spec,
                    instr.rd if spec.writes_rd else None,
                    instr.rs1 if spec.reads_rs1 else None,
                    instr.rs2 if spec.reads_rs2 else None,
                    cls is InstrClass.LOAD or cls is InstrClass.STORE)
        if len(_DECODE_PLANS) >= _INSTR_MEMO_MAX:
            _DECODE_PLANS.clear()
        _DECODE_PLANS[key] = plan
    return plan


_MEM_MASKS: Dict[Tuple, int] = {}


def mem_mask(instr: Instruction, spec, executor: "DutExecutor") -> int:
    """mem-family coverage of one load/store, as a mask (pre-execution)."""
    if spec.cls is not InstrClass.LOAD and spec.cls is not InstrClass.STORE:
        return 0
    kind, size, aligned, region = _mem_situation(instr, spec, executor)
    key = (instr.mnemonic, aligned, region)
    mask = _MEM_MASKS.get(key)
    if mask is None:
        mask = _MEM_MASKS[key] = mask_of(
            _mem_points_for(kind, size, aligned, region))
    return mask


_ALU_MASKS: Dict[Tuple[str, str], int] = {}


def alu_mask(mnemonic: str, rd_value: int) -> int:
    """ALU result-bucket coverage (caller guarantees an untrapped ALU commit)."""
    key = (mnemonic, _alu_bucket(rd_value))
    mask = _ALU_MASKS.get(key)
    if mask is None:
        mask = _ALU_MASKS[key] = mask_of((coverage_point("alu", *key),))
    return mask


_BRANCH_MASKS: Dict[Tuple, int] = {}


def branch_mask(mnemonic: str, taken: bool, backward: bool) -> int:
    """Branch outcome coverage (caller guarantees an untrapped branch commit)."""
    key = (mnemonic, taken, backward)
    mask = _BRANCH_MASKS.get(key)
    if mask is None:
        direction = (("backward_taken" if backward else "forward_taken")
                     if taken else None)
        mask = _BRANCH_MASKS[key] = mask_of(
            _branch_points_for(mnemonic, taken, direction))
    return mask


_ATOMIC_MASKS: Dict[Tuple, int] = {}


def atomic_mask(instr: Instruction, record: CommitRecord) -> int:
    """Atomic coverage (caller guarantees an untrapped atomic commit)."""
    key = _atomic_situation(instr, record)
    mask = _ATOMIC_MASKS.get(key)
    if mask is None:
        mask = _ATOMIC_MASKS[key] = mask_of(_atomic_points_for(*key))
    return mask


_TRAP_MASKS: Dict[Tuple[str, str], int] = {}


def trap_mask(instr: Instruction, record: CommitRecord) -> int:
    """Trap coverage of one trapping commit, as a mask."""
    key = _trap_situation(instr, record)
    mask = _TRAP_MASKS.get(key)
    if mask is None:
        mask = _TRAP_MASKS[key] = mask_of(_trap_points_for(*key))
    return mask


def _csr_point(kind: str, address: int) -> str:
    """The csr-family point name for one access situation (shared source)."""
    if kind == "unimplemented":
        return coverage_point("csr", "unimplemented", f"0x{address:03x}")
    if kind == "readonly_write":
        return coverage_point("csr", "readonly_write")
    return coverage_point("csr", csrdefs.csr_name(address), kind)


_CSR_MASKS: Dict[Tuple[str, int], int] = {}


def csr_mask(kind: str, address: int) -> int:
    """csr-family coverage of one access situation, as a mask."""
    key = (kind, address)
    mask = _CSR_MASKS.get(key)
    if mask is None:
        mask = _CSR_MASKS[key] = 1 << point_bit(_csr_point(kind, address))
    return mask


#: trap coverage of an illegal word's own illegal-instruction trap: the
#: fused loop's shortcut past ``trap_mask`` for the commonest trap.
_ILLEGAL_WORD_TRAP_MASK = mask_of(
    _trap_points_for("illegal_instruction", "illegal_word"))


def _cut_point(block: Superblock, triggers: Tuple) -> int:
    """Offset of the block's first entry one of ``triggers`` claims, or -1.

    ``triggers`` are the ``InjectedBug.triggers_on`` declarations of one
    bug set; the result is cached on ``block.bug_cut`` for that set.
    """
    cached = block.bug_cut
    if cached is not None and cached[0] == triggers:
        return cached[1]
    cut = -1
    for offset, (word, instr, _) in enumerate(block.entries):
        if any(trigger(instr, word) for trigger in triggers):
            cut = offset
            break
    block.bug_cut = (triggers, cut)
    return cut


#: per-word DUT plan entries.  An entry is a pure function of its word
#: (decode, handler and masks all follow from it), so every block holding
#: a word shares one entry tuple; bounded like the memos above.
_ENTRY_PLANS: Dict[int, Tuple] = {}


def _entry_plan(word: int, instr: Instruction, handler) -> Tuple:
    """Build (and memoise) the DUT plan entry of one superblock entry."""
    if instr.raw is not None:
        # Illegal word: no spec, no operand/hazard bookkeeping -- the
        # handler raises the illegal-instruction trap and the loop's trap
        # arm commits it (with the trap coverage of the cause a bug may
        # have rewritten).
        entry = (word, instr, handler, None, None, None, None, None,
                 False, False, False, None, False, False,
                 static_instr_mask(instr, word))
    else:
        spec = spec_for(instr.mnemonic)
        cls = spec.cls
        is_mem = cls is InstrClass.LOAD or cls is InstrClass.STORE
        entry = (
            word, instr, handler, spec, cls,
            instr.rd if spec.writes_rd else None,
            instr.rs1 if spec.reads_rs1 else None,
            instr.rs2 if spec.reads_rs2 else None,
            is_mem,
            is_mem or cls is InstrClass.ATOMIC,
            cls is InstrClass.MUL or cls is InstrClass.DIV,
            # ALU result-bucket masks (zero/neg/pos), pre-resolved so the
            # fused loop picks one with integer tests instead of calling
            # alu_mask (bucket string + tuple key + memo get) per commit.
            (alu_mask(instr.mnemonic, 0), alu_mask(instr.mnemonic, 1 << 63),
             alu_mask(instr.mnemonic, 1)) if cls in _ALU_CLASSES else None,
            cls is InstrClass.ATOMIC,
            cls is InstrClass.BRANCH,
            static_instr_mask(instr, word),
        )
    if len(_ENTRY_PLANS) >= _INSTR_MEMO_MAX:
        _ENTRY_PLANS.clear()
    _ENTRY_PLANS[word] = entry
    return entry


def _word_plan(word: int) -> Tuple:
    """The DUT plan entry of ``word``, decoded as the compiled trace does."""
    entry = _ENTRY_PLANS.get(word)
    if entry is None:
        instr = decode_word(word)
        entry = _entry_plan(word, instr, handler_for(instr))
    return entry


def _block_dut_plan(block: Superblock) -> Tuple[Tuple, ...]:
    """Attach (and return) the per-entry DUT execution plan of one superblock.

    Everything static per instruction -- spec, class predicates, register
    fields, the decode/operand/system mask -- is resolved once per word
    and cached on the block, so the fused DUT loop touches no memo
    dictionaries.  Illegal words fuse too (their handler raises the
    deterministic illegal-instruction trap); their plan entries carry a
    ``None`` spec and only the static fetch/decode mask.  The plan is DUT-
    and bug-independent; one block serves every DUT model in the process.
    """
    memo = _ENTRY_PLANS
    plan = []
    for word, instr, handler in block.entries:
        entry = memo.get(word)
        if entry is None:
            entry = _entry_plan(word, instr, handler)
        plan.append(entry)
    block.dut_plan = tuple(plan)
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
class DutExecutor(Executor):
    """Golden-semantics executor instrumented with microarchitecture, coverage and bugs."""

    def __init__(self, state: ArchState, memory: Memory, config: ExecutorConfig,
                 dut: "DutModel") -> None:
        super().__init__(state, memory, config)
        self.dut = dut
        dut_config = dut.config
        self.icache = CacheModel("icache", dut_config.icache_sets, dut_config.cache_ways)
        self.dcache = CacheModel("dcache", dut_config.dcache_sets, dut_config.cache_ways)
        self.bpred = BranchPredictor("bpred", dut_config.bpred_entries)
        self.hazards = HazardTracker("hazard", dut_config.hazard_window)
        self.fu = FunctionalUnitMonitor("fu")
        self.bugs: List[InjectedBug] = dut.bugs
        #: static trigger declarations of the bugs whose decode/retirement
        #: hooks the fused loop must hand to the per-step path.
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
        self.last_store_step: Optional[int] = None
        self.last_trap_step: Optional[int] = None
        self.last_trap_cause: Optional[TrapCause] = None
        self.bug_effects: Dict[str, List[int]] = {}
        #: decode results a bug's ``on_decode`` replaced so far.
        self._substitutions = 0
        self._operand_values: Tuple[int, int] = (0, 0)
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
    def _observe_decode(self, instr: Instruction, word: int, pc: int) -> Instruction:
        """Bug decode hooks + fetch/decode coverage (both step paths)."""
        for bug in self.bugs:
            replacement = bug.on_decode(self, instr, word)
            if replacement is not None:
                instr = replacement
                self._substitutions += 1
        self._record_fetch_decode(instr, word, pc)
        return instr

    def _record_fetch_decode(self, instr: Instruction, word: int, pc: int) -> None:
        """Coverage of one fetch+decode (bitset fast path)."""
        static_mask, spec, rd, rs1, rs2, is_mem = _decode_plan(instr, word)
        icache = self.icache
        cov = self._cov | icache.access_mask(pc, False) | static_mask
        line = pc // icache.line_bytes
        if line != self._fetch_line:
            self._fetch_line = line
            self._fetch_rehit = icache.repeat_hit_mask(pc)
        if spec is not None:
            regs = self.state.regs
            self._operand_values = (regs[rs1] if rs1 is not None else 0,
                                    regs[rs2] if rs2 is not None else 0)
            if is_mem:
                cov |= mem_mask(instr, spec, self)
            cov |= self.hazards.observe_mask(rd, rs1, rs2)
        self._cov = cov

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
        self._cov |= csr_mask(kind, address)

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
        current: Optional[Trap] = trap
        for bug in self.bugs:
            if current is None:
                break
            current = bug.on_trap(self, current, instr, pc)
        return current

    # --------------------------------------------------------------- retirement
    def _count_retirement(self, instr: Instruction, trapped: bool) -> None:
        for bug in self.bugs:
            if not bug.should_count_retirement(self, instr):
                self.state.csrs[csrdefs.MCYCLE] = (
                    self.state.csrs[csrdefs.MCYCLE] + 1) & MASK64
                return
        super()._count_retirement(instr, trapped)

    # ------------------------------------------------------------------ observe
    def _observe_commit(self, record: CommitRecord, instr: Instruction) -> CommitRecord:
        cov = self._cov
        trap = record.trap
        if trap is not None:
            cov |= trap_mask(instr, record)
        if not instr.is_illegal:
            cls = spec_for(instr.mnemonic).cls
            rd_value = record.rd_value
            if trap is None:
                if rd_value is not None and cls in _ALU_CLASSES:
                    cov |= alu_mask(instr.mnemonic, rd_value)
                elif cls is InstrClass.BRANCH:
                    taken = record.next_pc != (record.pc + 4) & MASK64
                    cov |= branch_mask(instr.mnemonic, taken,
                                       record.next_pc < record.pc)
                    cov |= self.bpred.update_mask(record.pc, taken)
                elif cls is InstrClass.ATOMIC:
                    cov |= atomic_mask(instr, record)
            if rd_value is not None and (cls is InstrClass.MUL
                                         or cls is InstrClass.DIV):
                operands = self._operand_values
                cov |= self.fu.observe_mask(cls, operands[0], operands[1],
                                            rd_value)
        cov |= self.dut.structural_mask(record, instr, self)
        if self.csr_tracker is not None:
            cov |= self.csr_tracker.observe_mask(record)
        self._cov = cov
        if trap is not None:
            self.last_trap_step = self._step_index
            self.last_trap_cause = trap
        return record

    # ------------------------------------------------------------- superblocks
    def run_block(self, block: Superblock, records: list) -> Optional[tuple]:
        """Fused superblock execution with inline coverage emission.

        Mirrors one iteration of the per-step path -- fetch/decode coverage,
        operand capture, execution, retirement counters, commit observation
        -- per plan entry, with the bounded-memo lookups pre-resolved into
        the block's plan and the coverage bitset held in a local.  Stateful
        microarchitectural components (icache LRU, hazard window, dcache via
        the memory hooks, the DUT's ``structural_mask`` emitter) are still
        consulted per instruction, in the same order as the per-step path,
        so the accumulated coverage set is bit-identical.

        Every DUT configuration runs here.  Injected bugs hook in where
        they act (see :class:`~repro.rtl.bugs.InjectedBug`):

        * ``on_mem_load``, ``on_csr_read`` and ``on_csr_write`` fire inside
          the handlers, as on the per-step path;
        * ``on_trap`` fires in the trap arm via :meth:`_trap_cause`; the arm
          commits the reported trap -- or, when a bug swallows it, the
          :meth:`_commit_suppressed_trap` record, which then takes the
          ordinary non-trap coverage arm;
        * ``on_decode`` and ``should_count_retirement`` only act on entries
          their bug's ``triggers_on`` declares.  The first such entry is
          the block's *cut point*: the loop stops before it, flushes what
          a block exit flushes, runs it through :meth:`step_compiled`
          (every hook fires) and returns.

        Under the ``csr`` coverage model the transition tracker observes
        the trap commits and the CSR tail, the only records that carry
        ``trap`` or ``csr_addr``/``csr_value``, so it sees the same
        records in the same order as on the per-step path.
        """
        plan = block.dut_plan
        if plan is None:
            plan = _block_dut_plan(block)
        entries = plan
        cut = -1
        if self._bug_triggers:
            cut = _cut_point(block, self._bug_triggers)
            if cut >= 0:
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
        base_address = block.base_address
        end_address = block.end_address
        pc = state.pc
        cov = self._cov
        dirtied = None
        # Cross-block fetch-line state: a fetch to the line the previous
        # fetch touched is a guaranteed re-hit (the icache is only ever
        # accessed by fetches), so it reduces to ``cov |= rehit`` with no
        # cache-model call and no LRU mutation.
        fetch_line = self._fetch_line
        fetch_rehit = self._fetch_rehit
        # Hazard-window locals (the tracker's observe_mask inlined below:
        # one attribute hop and call frame per entry is ~30% of its cost).
        hazards = self.hazards
        hz_recent = hazards._recent
        hz_table = hazards._mask_table()
        hz_window = hazards.window
        hz_no_hazard = hz_table["no_hazard"]
        # Retirement counters are batched like the base run_block: nothing
        # before a block's tail reads MINSTRET/MCYCLE, so two dict writes
        # at exit replace 2-per-entry.  A CSR tail can read or write them,
        # so the batch is flushed (and restarted) right before the tail
        # entry executes; ``commits`` equals the entry index, so the flush
        # triggers exactly there.
        flush_at = block.length - 1 if block.csr_tail else -1
        commits = 0
        uncounted = 0  # trapped commits excluded from minstret
        for (word, instr, handler, spec, cls, rd, rs1, rs2, is_mem,
             is_memlike, is_muldiv, alu3, is_atomic, is_branch,
             static_mask) in entries:
            line = pc // line_bytes
            if line == fetch_line:
                cov |= fetch_rehit | static_mask
            else:
                cov |= icache_access(pc, False) | static_mask
                fetch_line = line
                fetch_rehit = icache_repeat(pc)
            if spec is not None:
                # Illegal words (spec None) get no operand capture and no
                # hazard-window update, exactly like the per-step path.
                if is_muldiv:
                    self._operand_values = (regs[rs1] if rs1 is not None else 0,
                                            regs[rs2] if rs2 is not None else 0)
                if is_mem:
                    cov |= mem_mask(instr, spec, self)
                # --- hazards.observe_mask, inlined ---------------------------
                hmask = 0
                distance = 0
                for position in range(len(hz_recent) - 1, -1, -1):
                    distance += 1
                    prior_rd = hz_recent[position]
                    if not prior_rd:
                        continue
                    if rs1 == prior_rd:
                        hmask |= hz_table["rs1", distance] | hz_table["fwd", prior_rd]
                    if rs2 == prior_rd:
                        hmask |= hz_table["rs2", distance] | hz_table["fwd", prior_rd]
                    if rd == prior_rd:
                        hmask |= hz_table["waw", distance]
                cov |= hmask if hmask else hz_no_hazard
                hz_recent.append(rd)
                if len(hz_recent) > hz_window:
                    del hz_recent[0]
            trap = None
            if commits == flush_at:
                # CSR tail: flush the batched counters so its CSR reads
                # and writes are architecturally exact, then restart the
                # batch (see Executor.run_block).  Its handler emits CSR
                # coverage through ``self._cov``, so sync like memlike.
                csrs[csrdefs.MINSTRET] = (
                    csrs[csrdefs.MINSTRET] + commits - uncounted) & MASK64
                csrs[csrdefs.MCYCLE] = (csrs[csrdefs.MCYCLE] + commits) & MASK64
                commits = 0
                uncounted = 0
                flush_at = -1
                sync_cov = True
            else:
                sync_cov = is_memlike
            if sync_cov:
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
                        # bucket: zero / neg (bit 63 set) / pos -- same
                        # partition _alu_bucket derives via to_signed.
                        cov |= (alu3[0] if rd_value == 0 else
                                alu3[1] if rd_value >> 63 else alu3[2])
                    if is_muldiv:
                        operands = self._operand_values
                        cov |= self.fu.observe_mask(cls, operands[0],
                                                    operands[1], rd_value)
                if is_branch:
                    taken = record.next_pc != (pc + 4) & MASK64
                    cov |= branch_mask(instr.mnemonic, taken,
                                       record.next_pc < pc)
                    cov |= self.bpred.update_mask(pc, taken)
                elif is_atomic:
                    cov |= atomic_mask(instr, record)
            else:
                # Break the trap -> traceback -> this frame -> ``trap``
                # cycle (see Executor._commit_trap).
                trap.with_traceback(None)
                cause = trap.cause
                csrs[csrdefs.MEPC] = pc
                csrs[csrdefs.MCAUSE] = int(cause)
                csrs[csrdefs.MTVAL] = trap.tval & MASK64
                record = CommitRecord(
                    step=self._step_index, pc=pc, word=word,
                    mnemonic=instr.mnemonic, trap=cause,
                    next_pc=(pc + 4) & MASK64, trap_tval=trap.tval & MASK64)
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
            commits += 1
            append(record)
            self._step_index += 1
            pc += 4
            mem_addr = record.mem_addr
            if mem_addr is not None:
                dirtied = dirty_word_span(mem_addr, record.mem_size or 1,
                                          base_address, end_address)
                if dirtied is not None:
                    break  # store hit the code window: stop fused execution
        if (tracker is not None and block.csr_tail
                and len(records) - block_start == block.length
                and record.trap is None):
            # The CSR tail committed: after the trap commits (observed in
            # the trap arm), the only record that can move a tracked CSR.
            cov |= tracker.observe_mask(record)
        # Structural coverage is a pure function of the commit records (plus
        # the model's own scratch state, which it advances in record order),
        # so it batches into one call per block instead of one per commit.
        cov |= self.dut.structural_block_mask(records, block_start, plan, self,
                                              block)
        csrs[csrdefs.MINSTRET] = (csrs[csrdefs.MINSTRET] + commits - uncounted) & MASK64
        csrs[csrdefs.MCYCLE] = (csrs[csrdefs.MCYCLE] + commits) & MASK64
        self._cov = cov
        self._fetch_line = fetch_line
        self._fetch_rehit = fetch_rehit
        if cut >= 0 and dirtied is None:
            # Cut point: everything above was a block exit; the entry a
            # bug's decode/retirement hook may act on runs per-step.
            state.pc = pc & MASK64
            record = self.step_compiled(block.entries[cut])
            append(record)
            mem_addr = record.mem_addr
            if mem_addr is not None:
                dirtied = dirty_word_span(mem_addr, record.mem_size or 1,
                                          base_address, end_address)
            return dirtied
        if block.tail_redirect and dirtied is None:
            # The tail branch/jump ran; its record carries the exit pc.
            state.pc = record.next_pc
        else:
            state.pc = pc & MASK64
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

        A store or trap inside the verified period recurs in every copy,
        so its step moves with the last one; older ones stay put.  So does
        each bug effect of the period: every copy appends it to
        ``bug_effects`` at its shifted step.  The only coverage that
        depends on the step index is structural (BOOM's
        ROB, issue-queue, register-file, load/store-queue and lane points,
        CVA6's scoreboard and commit ports), so the model's
        :meth:`DutModel.structural_block_mask` runs over the copies; every
        other family sees the same inputs in each copy as in the verified
        period and can add nothing.
        """
        first = len(records)
        super().replay_period(records, period, copies, counter_steps)
        span = copies * period
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
        plan = tuple(_word_plan(r.word) for r in records[start:first])
        self._cov |= self.dut.structural_block_mask(records, first,
                                                    plan * copies, self)


# ======================================================================= model
#: per-process memos: coverage space and mask per (model class, DutConfig,
#: coverage model), structural emission tables per model class.
_SPACES: Dict[tuple, Tuple[FrozenSet[str], int]] = {}
_STRUCTURAL_TABLES: Dict[type, dict] = {}


class DutModel(ModelBase):
    """Base class of the three processor models."""

    #: subclasses override with their default configuration.
    default_config = DutConfig()

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
    def structural_space(self) -> Set[str]:
        """DUT-specific structural coverage points (overridden by subclasses)."""
        return set()

    def structural_mask(self, record: CommitRecord, instr: Instruction,
                        executor: DutExecutor) -> int:
        """DUT-specific structural coverage of one commit, as a bitset mask.

        The three processor models override this with table-driven emitters
        (precomputed per-point masks, no string building per commit); the
        base model has no structural coverage.
        """
        return 0

    def structural_block_mask(self, records: list, start: int, plan: Tuple,
                              executor: DutExecutor, block=None) -> int:
        """Structural coverage of one fused superblock's commits, batched.

        Called once per superblock by the fused DUT loop with the commit
        records the block appended (``records[start:]`` -- possibly fewer
        than ``len(plan)`` entries after a dirty-store abort) and the
        block's execution plan, whose entries carry the decoded
        instructions; and once per replayed loop (see
        :meth:`DutExecutor.replay_period`) with the copies' records and the
        period's plan entries repeated, without a block.  Equivalent to
        OR-ing :meth:`structural_mask` over the commits in order -- which
        is exactly what this default does -- but the three processor
        models override it with a single loop that hoists the table and
        memo lookups out of the per-commit path (and caches the per-entry
        plans on ``block.model_plans`` when the superblock is provided).
        """
        mask = 0
        structural = self.structural_mask
        for offset in range(len(records) - start):
            mask |= structural(records[start + offset], plan[offset][1],
                               executor)
        return mask

    def _structural_tables(self) -> dict:
        """The subclass's ``_build_structural_tables()``, built once per class."""
        tables = _STRUCTURAL_TABLES.get(type(self))
        if tables is None:
            tables = _STRUCTURAL_TABLES[type(self)] = (
                self._build_structural_tables())
        return tables

    def _space_and_mask(self) -> Tuple[FrozenSet[str], int]:
        key = (type(self), self.config, self.coverage_model)
        entry = _SPACES.get(key)
        if entry is None:
            space: Set[str] = set(common_space())
            config = self.config
            space |= CacheModel("icache", config.icache_sets, config.cache_ways).space()
            space |= CacheModel("dcache", config.dcache_sets, config.cache_ways).space()
            space |= BranchPredictor("bpred", config.bpred_entries).space()
            space |= HazardTracker("hazard", config.hazard_window).space()
            space |= FunctionalUnitMonitor("fu").space()
            space |= self.structural_space()
            if self.coverage_model == "csr":
                space |= transition_space()
            frozen = frozenset(space)
            entry = _SPACES[key] = (frozen, mask_of(frozen))
        return entry

    def coverage_space(self) -> FrozenSet[str]:
        """The DUT's full branch coverage space (per-process memo)."""
        return self._space_and_mask()[0]

    def coverage_space_mask(self) -> int:
        """:meth:`coverage_space` as a coverage mask (per-process memo)."""
        return self._space_and_mask()[1]

    @property
    def total_coverage_points(self) -> int:
        return len(self.coverage_space())

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
