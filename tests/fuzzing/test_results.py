"""Tests for campaign result records."""

import pytest

from repro.coverage.bitset import mask_of
from repro.coverage.database import CoverageSample
from repro.fuzzing.results import BugDetection, FuzzCampaignResult, TestOutcome
from repro.isa.instruction import Instruction
from repro.isa.program import TestProgram
from repro.sim.trace import HaltReason

#: a wire case that deletes its field instead of setting it.
MISSING = "<missing>"


def _outcome(new_points=frozenset()):
    return TestOutcome(
        test_index=0,
        program=TestProgram(instructions=(Instruction("ecall"),)),
        coverage=mask_of({"a"}),
        new_points=mask_of(new_points),
        mismatch=None,
        detected_bugs=frozenset(),
        halt_reason=HaltReason.ECALL,
    )


class TestTestOutcome:
    def test_interesting_iff_new_points(self):
        assert _outcome({"x"}).is_interesting
        assert not _outcome().is_interesting


class TestBugDetection:
    def test_tests_to_detection(self):
        detection = BugDetection(bug_id="V1", test_index=9, program_id="t3")
        assert detection.tests_to_detection == 10


class TestFuzzCampaignResult:
    def _result(self):
        return FuzzCampaignResult(
            fuzzer_name="thehuzz",
            dut_name="cva6",
            num_tests=10,
            coverage_curve=[CoverageSample(0, 5), CoverageSample(4, 9),
                            CoverageSample(9, 12)],
            coverage_count=12,
            total_points=100,
            bug_detections={"V5": BugDetection("V5", 2, "t9")},
        )

    def test_coverage_percent(self):
        assert self._result().coverage_percent == pytest.approx(12.0)

    def test_percent_with_zero_total(self):
        result = FuzzCampaignResult("f", "d", 1)
        assert result.coverage_percent == 0.0

    def test_detection_tests(self):
        result = self._result()
        assert result.detection_tests("V5") == 3
        assert result.detection_tests("V1") is None

    def test_coverage_at(self):
        result = self._result()
        assert result.coverage_at(0) == 5
        assert result.coverage_at(3) == 5
        assert result.coverage_at(4) == 9
        assert result.coverage_at(100) == 12

    def test_tests_to_reach_coverage(self):
        result = self._result()
        assert result.tests_to_reach_coverage(5) == 1
        assert result.tests_to_reach_coverage(9) == 5
        assert result.tests_to_reach_coverage(12) == 10
        assert result.tests_to_reach_coverage(13) is None

    def test_summary_mentions_key_facts(self):
        text = self._result().summary()
        assert "thehuzz" in text and "cva6" in text and "V5@3" in text


class TestSerialization:
    def _result(self):
        return FuzzCampaignResult(
            fuzzer_name="mabfuzz:ucb",
            dut_name="rocket",
            num_tests=20,
            coverage_curve=[CoverageSample(0, 5), CoverageSample(7, 11)],
            coverage_count=11,
            total_points=200,
            bug_detections={"V5": BugDetection("V5", 2, "t9", "mismatch at pc"),
                            "V7": BugDetection("V7", 15, "t40")},
            interesting_tests=4,
            mismatching_tests=2,
            elapsed_seconds=1.25,
            metadata={"trial": 1, "seed": 99, "gamma": None, "alpha": 0.25},
        )

    def test_coverage_sample_round_trip(self):
        sample = CoverageSample(3, 17)
        assert CoverageSample.from_dict(sample.to_dict()) == sample

    def test_bug_detection_round_trip(self):
        detection = BugDetection("V1", 4, "t2", "desc")
        assert BugDetection.from_dict(detection.to_dict()) == detection

    def test_bug_detection_default_description(self):
        rebuilt = BugDetection.from_dict({"bug_id": "V1", "test_index": 0,
                                          "program_id": "t0"})
        assert rebuilt.description == ""

    def test_result_round_trip_equality(self):
        result = self._result()
        rebuilt = FuzzCampaignResult.from_dict(result.to_dict())
        assert rebuilt == result  # dataclass field-wise equality

    def test_round_trip_survives_json(self):
        import json

        result = self._result()
        payload = json.loads(json.dumps(result.to_dict()))
        rebuilt = FuzzCampaignResult.from_dict(payload)
        assert rebuilt == result
        assert rebuilt.metadata["gamma"] is None  # None preserved in metadata

    def test_round_trip_with_no_detections(self):
        result = FuzzCampaignResult("thehuzz", "cva6", 5)
        rebuilt = FuzzCampaignResult.from_dict(result.to_dict())
        assert rebuilt == result
        assert rebuilt.detection_tests("V5") is None

    def test_canonical_dict_drops_wall_clock(self):
        result = self._result()
        canonical = result.canonical_dict()
        assert "elapsed_seconds" not in canonical
        slower = FuzzCampaignResult.from_dict(result.to_dict())
        slower.elapsed_seconds = 99.0
        assert slower.canonical_dict() == canonical

    @pytest.mark.parametrize("record, name, value", [
        ("result", "fuzzer_name", 7), ("result", "num_tests", 12.9),
        ("result", "coverage_count", "5"), ("result", "coverage_curve", MISSING),
        ("result", "metadata", [1]), ("result", "bogus", 1),
        ("detection", "bug_id", 5), ("detection", "test_index", "2"),
        ("detection", "program_id", None),
        ("sample", "test_index", "3"), ("sample", "covered", 2.5)])
    def test_wire_fields_are_checked_not_coerced(self, record, name, value):
        # Worker results and journal records decode through these: a
        # payload that breaks the declaration fails, naming its field.
        cls, data = {
            "result": (FuzzCampaignResult, self._result().to_dict()),
            "detection": (BugDetection, BugDetection("V1", 4, "t2").to_dict()),
            "sample": (CoverageSample, CoverageSample(3, 17).to_dict()),
        }[record]
        if value is MISSING:
            del data[name]
        else:
            data[name] = value
        with pytest.raises(ValueError, match=name):
            cls.from_dict(data)

    def test_nested_failures_name_their_path(self):
        data = self._result().to_dict()
        data["coverage_curve"][1]["covered"] = 2.5
        data["bug_detections"]["V7"]["test_index"] = "15"
        with pytest.raises(ValueError, match=r"coverage_curve\[1\]\.covered"):
            FuzzCampaignResult.from_dict(data)
        data["coverage_curve"] = []
        with pytest.raises(ValueError, match=r"bug_detections\[V7\]\.test_index"):
            FuzzCampaignResult.from_dict(data)
