"""End-to-end integration tests across the whole stack.

These exercise the realistic paths the benchmarks use, at a reduced scale:
full campaigns with injected bugs, MABFuzz-vs-TheHuzz comparisons with the
shared plumbing, and the experiment drivers.
"""

import pytest

from repro.api import make_fuzzer, make_processor
from repro.core.config import MABFuzzConfig
from repro.fuzzing.base import FuzzerConfig
from repro.harness.metrics import coverage_speedup

SMALL_FUZZ = FuzzerConfig(num_seeds=5, mutants_per_test=3)
SMALL_MAB = MABFuzzConfig(num_arms=5, arm_pool_max=32)


class TestBugDetectionEndToEnd:
    def test_cva6_campaign_detects_easy_bugs(self):
        """A modest campaign on the buggy CVA6 finds the easy vulnerabilities."""
        dut = make_processor("cva6")
        fuzzer = make_fuzzer("mabfuzz:exp3", dut, fuzzer_config=SMALL_FUZZ,
                             mab_config=SMALL_MAB, rng=3)
        result = fuzzer.run(400)
        assert "V5" in result.bug_detections
        assert result.bug_detections["V5"].tests_to_detection <= 50
        # At this scale at least one of the moderate-difficulty bugs shows up too.
        assert len(result.bug_detections) >= 2

    def test_detections_are_subset_of_injected(self):
        dut = make_processor("cva6", bugs=["V5", "V6"])
        fuzzer = make_fuzzer("thehuzz", dut, fuzzer_config=SMALL_FUZZ, rng=1)
        result = fuzzer.run(120)
        assert set(result.bug_detections) <= {"V5", "V6"}

    def test_clean_dut_never_reports_bugs(self):
        dut = make_processor("boom")  # boom has no injected bugs by default
        fuzzer = make_fuzzer("mabfuzz:ucb", dut, fuzzer_config=SMALL_FUZZ,
                             mab_config=SMALL_MAB, rng=2)
        result = fuzzer.run(60)
        assert result.bug_detections == {}
        assert result.mismatching_tests == 0


class TestSchedulingBehaviour:
    def test_mabfuzz_resets_arms_over_a_campaign(self):
        dut = make_processor("rocket", bugs=[])
        fuzzer = make_fuzzer("mabfuzz:ucb", dut, fuzzer_config=SMALL_FUZZ,
                             mab_config=MABFuzzConfig(num_arms=5, gamma=2,
                                                      arm_pool_max=32), rng=4)
        result = fuzzer.run(150)
        assert result.metadata["total_resets"] > 0
        # Resets replace seeds, so some arms are beyond generation 0.
        assert any(arm.generation > 0 for arm in fuzzer.arms)

    def test_coverage_counts_are_consistent(self):
        dut = make_processor("rocket", bugs=[])
        fuzzer = make_fuzzer("mabfuzz:egreedy", dut, fuzzer_config=SMALL_FUZZ,
                             mab_config=SMALL_MAB, rng=5)
        result = fuzzer.run(80)
        assert result.coverage_curve[-1].covered == result.coverage_count
        assert result.coverage_count <= result.total_points
        # The union of per-arm coverage cannot exceed the global database.
        arm_union = 0
        for arm in fuzzer.arms:
            arm_union |= arm.local_coverage
        assert arm_union.bit_count() <= result.coverage_count

    def test_mabfuzz_and_thehuzz_share_coverage_space(self):
        """Fuzzer-agnosticism: both fuzzers report against the same DUT space."""
        results = {}
        for name in ("thehuzz", "mabfuzz:ucb"):
            dut = make_processor("cva6", bugs=[])
            fuzzer = make_fuzzer(name, dut, fuzzer_config=SMALL_FUZZ,
                                 mab_config=SMALL_MAB, rng=6)
            results[name] = fuzzer.run(60)
        assert results["thehuzz"].total_points == results["mabfuzz:ucb"].total_points

    def test_coverage_speedup_computable_between_fuzzers(self):
        results = {}
        for name in ("thehuzz", "mabfuzz:exp3"):
            dut = make_processor("rocket", bugs=[])
            fuzzer = make_fuzzer(name, dut, fuzzer_config=SMALL_FUZZ,
                                 mab_config=SMALL_MAB, rng=7)
            results[name] = fuzzer.run(100)
        speedup = coverage_speedup([results["thehuzz"]], [results["mabfuzz:exp3"]])
        assert speedup > 0


class TestDeterminism:
    @pytest.mark.parametrize("fuzzer_name", ["thehuzz", "mabfuzz:ucb", "mabfuzz:exp3"])
    def test_full_campaign_reproducible(self, fuzzer_name):
        outcomes = []
        for _ in range(2):
            dut = make_processor("cva6")
            fuzzer = make_fuzzer(fuzzer_name, dut, fuzzer_config=SMALL_FUZZ,
                                 mab_config=SMALL_MAB, rng=123)
            result = fuzzer.run(40)
            outcomes.append((
                result.coverage_count,
                tuple(sorted((b, d.test_index) for b, d in result.bug_detections.items())),
                tuple(s.covered for s in result.coverage_curve),
            ))
        assert outcomes[0] == outcomes[1]
