"""Tests for the TheHuzz baseline and the random fuzzer."""

import pytest

from repro.fuzzing.base import FuzzerConfig
from repro.fuzzing.random_fuzzer import RandomFuzzer
from repro.fuzzing.thehuzz import TheHuzzFuzzer
from repro.rtl.cva6 import CVA6Model
from repro.rtl.rocket import RocketModel


@pytest.fixture
def small_config():
    return FuzzerConfig(num_seeds=4, mutants_per_test=2)


class TestFuzzerConfig:
    def test_defaults(self):
        config = FuzzerConfig()
        assert config.num_seeds == 10
        assert config.mutants_per_test == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            FuzzerConfig(num_seeds=0)
        with pytest.raises(ValueError):
            FuzzerConfig(mutants_per_test=0)
        with pytest.raises(ValueError):
            FuzzerConfig(max_program_steps=0)


class TestTheHuzz:
    def test_initial_pool_holds_seeds(self, small_config):
        fuzzer = TheHuzzFuzzer(CVA6Model(bugs=[]), config=small_config, rng=1)
        assert len(fuzzer.pool) == small_config.num_seeds

    def test_fuzz_one_runs_a_test(self, small_config):
        fuzzer = TheHuzzFuzzer(CVA6Model(bugs=[]), config=small_config, rng=1)
        outcome = fuzzer.fuzz_one()
        assert outcome.test_index == 0
        assert fuzzer.session.tests_executed == 1

    def test_interesting_tests_spawn_mutants(self, small_config):
        fuzzer = TheHuzzFuzzer(CVA6Model(bugs=[]), config=small_config, rng=1)
        before = len(fuzzer.pool)
        outcome = fuzzer.fuzz_one()
        assert outcome.is_interesting  # the very first test always covers new points
        # one popped, mutants_per_test pushed
        assert len(fuzzer.pool) == before - 1 + small_config.mutants_per_test

    def test_pool_never_starves(self, small_config):
        fuzzer = TheHuzzFuzzer(CVA6Model(bugs=[]), config=small_config, rng=2)
        for _ in range(small_config.num_seeds * 3):
            fuzzer.fuzz_one()
        # even if everything got uninteresting, _next_test generates new seeds
        assert fuzzer.session.tests_executed == small_config.num_seeds * 3

    def test_run_returns_campaign_result(self, small_config):
        fuzzer = TheHuzzFuzzer(CVA6Model(bugs=[]), config=small_config, rng=3)
        result = fuzzer.run(20)
        assert result.fuzzer_name == "thehuzz"
        assert result.dut_name == "cva6"
        assert result.num_tests == 20
        assert result.coverage_count > 0
        assert result.total_points == fuzzer.dut.total_coverage_points
        assert len(result.coverage_curve) == 20
        assert result.interesting_tests >= 1
        assert result.metadata["num_seeds"] == 4

    def test_run_rejects_nonpositive(self, small_config):
        fuzzer = TheHuzzFuzzer(CVA6Model(bugs=[]), config=small_config, rng=3)
        with pytest.raises(ValueError):
            fuzzer.run(0)

    def test_deterministic_given_seed(self, small_config):
        results = []
        for _ in range(2):
            fuzzer = TheHuzzFuzzer(CVA6Model(bugs=[]), config=small_config, rng=99)
            results.append(fuzzer.run(15))
        assert results[0].coverage_count == results[1].coverage_count
        assert [s.covered for s in results[0].coverage_curve] == \
            [s.covered for s in results[1].coverage_curve]

    def test_detects_easy_bug_quickly(self):
        # V5 (missing exception on unmapped addresses) is detected within a
        # handful of tests, mirroring the paper's observation.
        fuzzer = TheHuzzFuzzer(CVA6Model(bugs=["V5"]),
                               config=FuzzerConfig(num_seeds=5), rng=7)
        result = fuzzer.run(60)
        assert "V5" in result.bug_detections


class TestRandomFuzzer:
    def test_every_test_is_fresh(self, small_config):
        fuzzer = RandomFuzzer(RocketModel(bugs=[]), config=small_config, rng=5)
        result = fuzzer.run(10)
        assert result.fuzzer_name == "random"
        assert result.num_tests == 10
        assert result.coverage_count > 0

    def test_no_feedback_state(self, small_config):
        fuzzer = RandomFuzzer(RocketModel(bugs=[]), config=small_config, rng=5)
        outcome = fuzzer.fuzz_one()
        # RandomFuzzer has no pool; nothing to assert beyond not crashing and
        # producing generation-0 programs only.
        assert outcome.program.generation == 0
