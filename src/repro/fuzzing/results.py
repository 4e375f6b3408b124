"""Campaign result records shared by all fuzzers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional

from repro.coverage.database import CoverageSample
from repro.fuzzing.differential import Mismatch
from repro.isa.program import TestProgram
from repro.sim.trace import HaltReason


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
class BugDetection:
    """First detection of one vulnerability during a campaign."""

    bug_id: str
    test_index: int
    program_id: str
    description: str = ""

    @property
    def tests_to_detection(self) -> int:
        """Number of tests executed up to and including the detecting test."""
        return self.test_index + 1

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe representation (inverse of :meth:`from_dict`)."""
        return {
            "bug_id": self.bug_id,
            "test_index": self.test_index,
            "program_id": self.program_id,
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "BugDetection":
        """Rebuild a detection from :meth:`to_dict` output."""
        return cls(
            bug_id=str(data["bug_id"]),
            test_index=int(data["test_index"]),
            program_id=str(data["program_id"]),
            description=str(data.get("description", "")),
        )


@dataclass
class FuzzCampaignResult:
    """Summary of one fuzzing campaign (one fuzzer, one DUT, one trial)."""

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

    # ------------------------------------------------------------- serialization
    def to_dict(self) -> Dict[str, object]:
        """JSON-safe representation (inverse of :meth:`from_dict`).

        ``metadata`` is carried through as-is, so it must stay JSON-safe
        (the fuzzers only put strings, numbers and ``None`` in it).  This is
        the wire format of the parallel execution subsystem: worker
        processes ship results back as dictionaries and the checkpoint
        journal stores one ``to_dict`` payload per completed trial.
        """
        return {
            "fuzzer_name": self.fuzzer_name,
            "dut_name": self.dut_name,
            "num_tests": self.num_tests,
            "coverage_curve": [sample.to_dict() for sample in self.coverage_curve],
            "coverage_count": self.coverage_count,
            "total_points": self.total_points,
            "bug_detections": {bug_id: det.to_dict()
                               for bug_id, det in self.bug_detections.items()},
            "interesting_tests": self.interesting_tests,
            "mismatching_tests": self.mismatching_tests,
            "elapsed_seconds": self.elapsed_seconds,
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FuzzCampaignResult":
        """Rebuild a result from :meth:`to_dict` output."""
        return cls(
            fuzzer_name=str(data["fuzzer_name"]),
            dut_name=str(data["dut_name"]),
            num_tests=int(data["num_tests"]),
            coverage_curve=[CoverageSample.from_dict(sample)
                            for sample in data.get("coverage_curve", [])],
            coverage_count=int(data.get("coverage_count", 0)),
            total_points=int(data.get("total_points", 0)),
            bug_detections={str(bug_id): BugDetection.from_dict(det)
                            for bug_id, det in data.get("bug_detections", {}).items()},
            interesting_tests=int(data.get("interesting_tests", 0)),
            mismatching_tests=int(data.get("mismatching_tests", 0)),
            elapsed_seconds=float(data.get("elapsed_seconds", 0.0)),
            metadata=dict(data.get("metadata", {})),
        )

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
