"""Campaign result records shared by all fuzzers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional

from repro.coverage.database import CoverageSample
from repro.fuzzing.differential import Mismatch
from repro.isa.program import TestProgram
from repro.sim.trace import HaltReason
from repro.utils.wire import OPTIONAL, Record


@dataclass(frozen=True)
class TestOutcome:
    """Everything observed while executing one test (coverage as masks)."""

    test_index: int
    program: TestProgram
    coverage: int
    new_points: int
    mismatch: Optional[Mismatch]
    detected_bugs: FrozenSet[str]
    halt_reason: HaltReason

    @property
    def is_interesting(self) -> bool:
        """Whether the test covered at least one globally new point."""
        return bool(self.new_points)


@dataclass(frozen=True)
class BugDetection(Record):
    """First detection of one vulnerability during a campaign (a wire
    record; a payload may leave out ``description``)."""

    bug_id: str
    test_index: int
    program_id: str
    description: str = field(default="", metadata=OPTIONAL)

    @property
    def tests_to_detection(self) -> int:
        """Number of tests executed up to and including the detecting test."""
        return self.test_index + 1


@dataclass
class FuzzCampaignResult(Record):
    """Summary of one fuzzing campaign (one fuzzer, one DUT, one trial).

    This is the result side of the wire format (:mod:`repro.utils.wire`):
    workers ship results back as :meth:`to_dict` payloads and the
    checkpoint journal stores one per completed trial.  ``metadata`` is
    carried through as-is, so it must stay JSON-safe (the fuzzers only put
    strings, numbers and ``None`` in it).
    """

    fuzzer_name: str
    dut_name: str
    num_tests: int
    coverage_curve: List[CoverageSample] = field(default_factory=list)
    coverage_count: int = 0
    total_points: int = 0
    bug_detections: Dict[str, BugDetection] = field(default_factory=dict)
    interesting_tests: int = 0
    mismatching_tests: int = 0
    elapsed_seconds: float = 0.0
    metadata: Dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------ queries
    @property
    def coverage_percent(self) -> float:
        if self.total_points == 0:
            return 0.0
        return 100.0 * self.coverage_count / self.total_points

    def detection_tests(self, bug_id: str) -> Optional[int]:
        """Tests needed to first detect ``bug_id`` (or ``None`` if undetected)."""
        detection = self.bug_detections.get(bug_id)
        return detection.tests_to_detection if detection else None

    def coverage_at(self, test_index: int) -> int:
        """Cumulative covered points after ``test_index`` tests (0-based index)."""
        covered = 0
        for sample in self.coverage_curve:
            if sample.test_index <= test_index:
                covered = sample.covered
            else:
                break
        return covered

    def tests_to_reach_coverage(self, target_covered: int) -> Optional[int]:
        """Tests needed to reach ``target_covered`` points (or ``None``)."""
        for sample in self.coverage_curve:
            if sample.covered >= target_covered:
                return sample.test_index + 1
        return None

    def summary(self) -> str:
        """One-line human-readable summary."""
        bugs = ", ".join(
            f"{bug}@{det.tests_to_detection}" for bug, det in sorted(self.bug_detections.items())
        ) or "none"
        return (f"{self.fuzzer_name} on {self.dut_name}: "
                f"{self.coverage_count}/{self.total_points} points "
                f"({self.coverage_percent:.1f}%) after {self.num_tests} tests; "
                f"bugs detected: {bugs}")

    def canonical_dict(self) -> Dict[str, object]:
        """:meth:`to_dict` minus wall-clock fields.

        Two trials of the same spec are *deterministically equal* when their
        canonical dictionaries match; ``elapsed_seconds`` is excluded
        because it measures host scheduling, not campaign behaviour.  The
        serial-vs-parallel equivalence tests compare this form.
        """
        data = self.to_dict()
        del data["elapsed_seconds"]
        return data
