"""Shared fuzzing-session plumbing.

A :class:`FuzzSession` bundles the pieces every fuzzer needs per campaign --
the DUT model, the golden reference, the cumulative coverage database, the
differential tester and the bug-detection bookkeeping -- behind a single
``run_test`` call.  Both TheHuzz and MABFuzz drive campaigns exclusively
through this interface, which is what makes the MAB layer fuzzer-agnostic
(the paper's claim in Sec. III).
"""

from __future__ import annotations

from functools import cache
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.coverage.bitset import union
from repro.coverage.csr_transitions import TRANSITION_TABLE
from repro.coverage.database import CoverageDatabase
from repro.fuzzing.differential import DifferentialReport, DifferentialTester
from repro.fuzzing.results import BugDetection, TestOutcome
from repro.isa.program import TestProgram
from repro.rtl.harness import TRAP_TABLE, DutModel
from repro.sim.golden import GoldenModel, process_golden_cache
from repro.sim.trace import HaltReason

if TYPE_CHECKING:  # avoid a cycle: repro.exec imports the fuzzing layer.
    from repro.exec.cache import DutRunCache

#: the report of every test in which no bug fired.
_NO_MISMATCH = DifferentialReport(mismatch=None)


@cache
def _family_masks() -> Tuple[int, int]:
    """The ``trap.*`` and CSR-transition families as masks, once per process."""
    return union(TRAP_TABLE), union(TRANSITION_TABLE)


class FuzzSession:
    """Executes tests against one DUT with differential testing and coverage tracking.

    The DUT runs first.  It is the golden model plus bug hooks, and a bug
    records an effect only when it changed behaviour, so a run in which no
    bug fired commits the golden trace
    (``tests/integration/test_property_equivalence.py`` checks it) and has
    no mismatch to find.  Only when a bug fired does :meth:`run_test` take
    the golden run from the process's one
    :func:`~repro.sim.golden.process_golden_cache` and compare the traces.
    Both runs stop at ``max_steps`` (``FuzzerConfig.max_program_steps``;
    ``None`` is the executor's limit).  With a :attr:`dut_cache` (every
    grid trial has one) a test is looked up first; an entry is what the
    test reads of its runs, so a hit runs and compares nothing, and no
    commit trace outlives its test.

    Both models execute the program's **compiled trace**
    (:mod:`repro.isa.compiled`): the DUT run compiles it (or pulls it
    from the process cache keyed on the program's words) and a golden run
    replays the very same threaded-code object, so fetch+decode work is
    paid once per distinct program per process.  The process-level
    counters are process-cumulative and therefore kept out of
    campaign-result metadata (see
    :func:`repro.exec.cache.process_cache_stats` and ``docs/parallel.md``).
    """

    def __init__(self, dut: DutModel, dut_cache: Optional["DutRunCache"] = None,
                 max_steps: Optional[int] = None) -> None:
        self.dut = dut
        #: built from the DUT's executor config and layout, which key both
        #: caches: so a cached verdict is the one this golden model gives.
        self.golden = GoldenModel(dut.executor_config, dut.layout)
        self.max_steps = max_steps
        self.dut_cache = dut_cache
        self.coverage_db = CoverageDatabase(space_mask=dut.coverage_space_mask())
        self.differential = DifferentialTester()
        self.bug_detections: Dict[str, BugDetection] = {}
        self.tests_executed = 0
        self.interesting_tests = 0
        self.mismatching_tests = 0

    @property
    def dut_cache(self) -> Optional["DutRunCache"]:
        """The :class:`~repro.exec.cache.DutRunCache` tests go through, or
        ``None``; a hit never changes results."""
        return self._dut_cache

    @dut_cache.setter
    def dut_cache(self, cache: Optional["DutRunCache"]) -> None:
        self._dut_cache = cache
        self._identity = None if cache is None else cache.identity(self.dut, self.max_steps)

    # ------------------------------------------------------------------ running
    def run_test(self, program: TestProgram) -> TestOutcome:
        """Run one test (or read its outcome from the DUT cache), update
        coverage and bug bookkeeping."""
        test_index = self.tests_executed
        cache = self._dut_cache
        if cache is None:
            entry = self._outcome(program)
        else:
            key = cache.key(program, self._identity)
            entry = cache.lookup(key)
            if entry is None:
                entry = self._outcome(program)
                cache.insert(key, entry)
        coverage, halt_reason, report = entry
        new_points = self.coverage_db.record(test_index, coverage)

        if report.found_mismatch:
            self.mismatching_tests += 1
            for bug_id in report.detected_bugs:
                if bug_id not in self.bug_detections:
                    self.bug_detections[bug_id] = BugDetection(
                        bug_id=bug_id,
                        test_index=test_index,
                        program_id=program.program_id,
                        description=report.mismatch.describe() if report.mismatch else "",
                    )
        outcome = TestOutcome(
            test_index=test_index,
            program=program,
            coverage=coverage,
            new_points=new_points,
            mismatch=report.mismatch,
            detected_bugs=report.detected_bugs,
            halt_reason=halt_reason,
        )
        if outcome.is_interesting:
            self.interesting_tests += 1
        self.tests_executed += 1
        return outcome

    def _outcome(self, program: TestProgram) -> Tuple[int, HaltReason, DifferentialReport]:
        """Run ``program`` on the DUT and, only if a bug fired, compare it
        with the golden run: (coverage mask, halt reason, report)."""
        dut_run = self.dut.run(program, self.max_steps)
        report = _NO_MISMATCH
        if dut_run.fired_bugs:
            golden_result = process_golden_cache().get_or_run(self.golden, program,
                                                              self.max_steps)
            report = self.differential.check(golden_result, dut_run)
        return dut_run.coverage, dut_run.execution.halt_reason, report

    # ------------------------------------------------------------------ queries
    @property
    def coverage_count(self) -> int:
        return self.coverage_db.covered_count

    @property
    def total_points(self) -> int:
        return self.dut.total_coverage_points

    def family_counts(self) -> Dict[str, int]:
        """Covered CSR-transition points (0 under the base coverage model)
        and ``trap.*`` points (trap-reaching evidence) -- trial-end
        metadata, counted on the covered mask without building names."""
        covered = self.coverage_db.covered_mask
        traps, transitions = _family_masks()
        return {"csr_transition_points": (covered & transitions).bit_count(),
                "trap_points": (covered & traps).bit_count()}

    def undetected_bugs(self) -> List[str]:
        """Bug ids injected into the DUT that have not been detected yet."""
        injected = {bug.bug_id for bug in self.dut.bugs}
        return sorted(injected - set(self.bug_detections))
