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
from repro.fuzzing.differential import DifferentialTester
from repro.fuzzing.results import BugDetection, TestOutcome
from repro.isa.program import TestProgram
from repro.rtl.harness import TRAP_TABLE, DutModel
from repro.sim.golden import GoldenModel, GoldenTraceCache

if TYPE_CHECKING:  # avoid a cycle: repro.exec imports the fuzzing layer.
    from repro.exec.cache import DutRunCache


@cache
def _family_masks() -> Tuple[int, int]:
    """The ``trap.*`` and CSR-transition families as masks, once per process."""
    return union(TRAP_TABLE), union(TRANSITION_TABLE)


class FuzzSession:
    """Executes tests against one DUT with differential testing and coverage tracking.

    Golden-model runs are served through a :class:`GoldenTraceCache`:
    duplicate or unmutated programs (MABFuzz arms replay their seeds) never
    re-run the reference model within a campaign.  Its hit/miss counters
    (:attr:`golden_cache_hits`, :attr:`golden_cache_misses`) go into the
    campaign-result metadata.

    Both halves of a test -- the golden reference and the instrumented DUT
    -- execute the program's **compiled trace**
    (:mod:`repro.isa.compiled`): the golden run compiles it (or pulls it
    from the process-level fingerprint cache) and the DUT run replays the
    very same threaded-code object, so fetch+decode work is paid once per
    distinct program per process rather than once per model per run.  The
    process-level counters are process-cumulative and therefore kept out of
    campaign-result metadata (see :func:`repro.exec.cache.process_cache_stats`
    and ``docs/parallel.md``).
    """

    def __init__(self, dut: DutModel, golden: Optional[GoldenModel] = None,
                 golden_cache: Optional[GoldenTraceCache] = None,
                 dut_cache: Optional["DutRunCache"] = None) -> None:
        self.dut = dut
        self.golden = golden or GoldenModel(dut.executor_config)
        self.golden_cache = golden_cache or GoldenTraceCache()
        #: optional :class:`~repro.exec.cache.DutRunCache`; the parallel
        #: execution workers install their process-local instance here.
        #: DUT runs are deterministic, so a cache hit never changes results.
        self.dut_cache = dut_cache
        self.coverage_db = CoverageDatabase(space_mask=dut.coverage_space_mask())
        self.differential = DifferentialTester()
        self.bug_detections: Dict[str, BugDetection] = {}
        self.tests_executed = 0
        self.interesting_tests = 0
        self.mismatching_tests = 0

    # ------------------------------------------------------------------ running
    def run_test(self, program: TestProgram) -> TestOutcome:
        """Run one test on golden + DUT, update coverage and bug bookkeeping."""
        test_index = self.tests_executed
        golden_result = self.golden_cache.get_or_run(self.golden, program)
        if self.dut_cache is not None:
            dut_run = self.dut_cache.get_or_run(self.dut, program)
        else:
            dut_run = self.dut.run(program)
        report = self.differential.check(golden_result, dut_run)
        new_points = self.coverage_db.record(test_index, dut_run.coverage)

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
            coverage=dut_run.coverage,
            new_points=new_points,
            mismatch=report.mismatch,
            detected_bugs=report.detected_bugs,
            halt_reason=dut_run.execution.halt_reason,
        )
        if outcome.is_interesting:
            self.interesting_tests += 1
        self.tests_executed += 1
        return outcome

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

    @property
    def golden_cache_hits(self) -> int:
        return self.golden_cache.hits

    @property
    def golden_cache_misses(self) -> int:
        return self.golden_cache.misses

    def undetected_bugs(self) -> List[str]:
        """Bug ids injected into the DUT that have not been detected yet."""
        injected = {bug.bug_id for bug in self.dut.bugs}
        return sorted(injected - set(self.bug_detections))
