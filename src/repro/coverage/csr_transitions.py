"""ProcessorFuzz-style CSR-transition coverage.

Hit-set coverage (the ``decode.*``/``alu.*``/... families) says *where* a
test went; it says nothing about how the privileged state machine moved.
ProcessorFuzz's observation is that the sequence of *value-class
transitions* of the control CSRs (mcause, mepc, mtval, mstatus ...) is the
signal that separates trap-reaching stimuli from straight-line user code,
so this module adds exactly that as a coverage family:

* every tracked CSR has a small, total *classifier* mapping its 64-bit
  value onto a handful of semantic classes (trap-cause names for mcause,
  address regions for mepc/mtval, zero/non-zero for the mask registers),
* a coverage point is one observed class change, named
  ``csr.<reg>.<old-class>-><new-class>`` via the normal
  :func:`~repro.coverage.points.coverage_point` scheme, and
* :data:`TRANSITION_TABLE` declares the family once: every ordered class
  pair per register, keyed ``(csr address, old class, new class)``, maps to
  its point's mask.  The family's points are the table's union, and a
  transition outside it cannot be emitted silently (the lookup raises
  ``KeyError``).

Transitions are a pure function of the architectural commit trace: the
:class:`CsrTransitionTracker` consumes :class:`~repro.sim.trace.
CommitRecord` objects one by one, and the DUT harness feeds it every
record that can move a tracked CSR -- trap commits and CSR writes -- from
the fused :meth:`~repro.rtl.harness.DutExecutor.run_block`, where every
DUT instruction commits.  Replaying any stored
trace -- golden or DUT -- through a fresh tracker yields the same
transitions, which is what lets tests assert that a defect-free DUT emits
exactly the transitions derivable from the golden commit records.

Like the other emitters, the tracker returns its table's bitset masks
(:mod:`repro.coverage.bitset`), so observing a commit allocates nothing on
the hot path.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.coverage.bitset import point_bit
from repro.coverage.points import coverage_point
from repro.isa import csr as csrdefs
from repro.isa.exceptions import TrapCause
from repro.sim.memory import DEFAULT_LAYOUT, MemoryLayout
from repro.sim.trace import CommitRecord
from repro.utils.bits import MASK64

#: coverage-model names accepted by the DUT models / campaign specs.
COVERAGE_MODELS = ("base", "csr")

#: reset value of mstatus (MPP = M); mirrored from repro.sim.state to keep
#: the classifier self-contained (the two are pinned together by a test).
_MSTATUS_RESET = 0x0000_0000_0000_1800

#: mcause value -> class name for every architecturally producible cause.
_CAUSE_CLASSES: Dict[int, str] = {
    int(cause): cause.name.lower() for cause in TrapCause
}


def _classify_cause(value: int, layout: MemoryLayout) -> str:
    """mcause classes: one per trap cause, ``other`` for software-written junk.

    The reset value 0 shares INSTRUCTION_ADDRESS_MISALIGNED's class (both
    are the value 0; a classifier is a function of the value alone).
    """
    return _CAUSE_CLASSES.get(value, "other")


def _classify_address(value: int, layout: MemoryLayout) -> str:
    """Region classes for address-carrying CSRs (mepc, mtval)."""
    if value == 0:
        return "zero"
    if layout.dram_base <= value < layout.data_base:
        return "code"
    if layout.data_base <= value < layout.dram_end:
        return "data"
    return "outside"


def _classify_mstatus(value: int, layout: MemoryLayout) -> str:
    if value == _MSTATUS_RESET:
        return "reset"
    return "zero" if value == 0 else "other"


def _classify_zero(value: int, layout: MemoryLayout) -> str:
    return "zero" if value == 0 else "nonzero"


_Classifier = Callable[[int, MemoryLayout], str]

#: tracked CSR -> (class enumeration, classifier).  The enumeration must
#: cover the classifier's range: :data:`TRANSITION_TABLE` is built from it,
#: so a class outside it makes the tracker raise ``KeyError``.
TRACKED_CSRS: Dict[int, Tuple[Tuple[str, ...], _Classifier]] = {
    csrdefs.MCAUSE: (tuple(sorted(set(_CAUSE_CLASSES.values()))) + ("other",),
                     _classify_cause),
    csrdefs.MEPC: (("zero", "code", "data", "outside"), _classify_address),
    csrdefs.MTVAL: (("zero", "code", "data", "outside"), _classify_address),
    csrdefs.MSTATUS: (("reset", "zero", "other"), _classify_mstatus),
    csrdefs.MTVEC: (("zero", "nonzero"), _classify_zero),
    csrdefs.MSCRATCH: (("zero", "nonzero"), _classify_zero),
    csrdefs.MIE: (("zero", "nonzero"), _classify_zero),
    csrdefs.MIP: (("zero", "nonzero"), _classify_zero),
}

#: marker that distinguishes transition points from the csr read/write
#: family sharing the ``csr.`` module prefix.
TRANSITION_MARKER = "->"


def transition_point(csr_address: int, old_class: str, new_class: str) -> str:
    """The canonical name of one CSR class transition."""
    return coverage_point("csr", csrdefs.csr_name(csr_address),
                          f"{old_class}{TRANSITION_MARKER}{new_class}")


#: (csr address, old class, new class) -> mask of that transition point,
#: for every ordered pair of distinct classes of every tracked CSR.
TRANSITION_TABLE: Dict[Tuple[int, str, str], int] = {
    (address, old_class, new_class):
        1 << point_bit(transition_point(address, old_class, new_class))
    for address, (classes, _) in TRACKED_CSRS.items()
    for old_class in classes for new_class in classes
    if old_class != new_class
}


def is_transition_point(point: str) -> bool:
    """Whether ``point`` belongs to the CSR-transition family."""
    return point.startswith("csr.") and TRANSITION_MARKER in point


class CsrTransitionTracker:
    """Tracks CSR value classes across one program run, emitting transitions.

    The tracker starts from the architectural reset classes and consumes
    commit records in order.  Two kinds of commits move tracked CSRs:

    * a trapping commit updates mcause/mepc/mtval (the executor's
      ``_commit_trap`` semantics, with the faulting ``tval`` carried on the
      record), and
    * an explicit CSR write commit (``csr_addr``/``csr_value``) updates
      whichever CSR the instruction addressed, including direct software
      writes to mcause/mepc/mtval themselves.

    A commit can therefore emit up to three transition points (a trap that
    moves all three trap CSRs across class boundaries), and usually emits
    none -- the common straight-line case is a few dict reads.
    """

    __slots__ = ("_layout", "_classes")

    def __init__(self, layout: MemoryLayout = DEFAULT_LAYOUT) -> None:
        self._layout = layout
        self._classes: Dict[int, str] = {}
        self.reset()

    def reset(self) -> None:
        """Return every tracked CSR to its architectural reset class."""
        layout = self._layout
        self._classes = {
            address: classifier(_MSTATUS_RESET if address == csrdefs.MSTATUS else 0,
                                layout)
            for address, (_, classifier) in TRACKED_CSRS.items()
        }

    def current_class(self, csr_address: int) -> Optional[str]:
        """The current class of ``csr_address`` (``None`` if untracked)."""
        return self._classes.get(csr_address)

    # ------------------------------------------------------------------ observe
    def _move(self, address: int, value: int) -> Optional[Tuple[int, str, str]]:
        """Reclassify one CSR; return the transition key if the class moved."""
        entry = TRACKED_CSRS.get(address)
        if entry is None:
            return None
        new_class = entry[1](value & MASK64, self._layout)
        old_class = self._classes[address]
        if new_class == old_class:
            return None
        self._classes[address] = new_class
        return (address, old_class, new_class)

    def observe_mask(self, record: CommitRecord) -> int:
        """Transition points of one commit, as a bitset mask (0 if none)."""
        if record.trap is not None:
            mask = 0
            for address, value in ((csrdefs.MCAUSE, int(record.trap)),
                                   (csrdefs.MEPC, record.pc),
                                   (csrdefs.MTVAL, record.trap_tval or 0)):
                moved = self._move(address, value)
                if moved is not None:
                    mask |= TRANSITION_TABLE[moved]
            return mask
        if record.csr_addr is not None and record.csr_value is not None:
            moved = self._move(record.csr_addr, record.csr_value)
            if moved is not None:
                return TRANSITION_TABLE[moved]
        return 0
