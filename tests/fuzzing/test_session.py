"""Tests for the shared fuzzing session plumbing."""

import pytest

from repro.fuzzing.session import FuzzSession
from repro.isa import csr as csrdefs
from repro.isa.instruction import Instruction
from repro.isa.program import TestProgram
from repro.rtl.cva6 import CVA6Model
from repro.rtl.rocket import RocketModel


def _program(*instructions):
    return TestProgram(instructions=tuple(instructions))


@pytest.fixture
def session():
    return FuzzSession(CVA6Model(bugs=["V6"]))


class TestRunTest:
    def test_first_test_is_interesting(self, session, straightline_program):
        outcome = session.run_test(straightline_program)
        assert outcome.test_index == 0
        assert outcome.is_interesting
        assert outcome.coverage
        assert session.tests_executed == 1
        assert session.interesting_tests == 1

    def test_repeated_test_not_interesting(self, session, straightline_program):
        session.run_test(straightline_program)
        outcome = session.run_test(straightline_program)
        assert not outcome.is_interesting
        assert outcome.new_points == 0

    def test_coverage_accumulates(self, session, straightline_program, memory_program):
        first = session.run_test(straightline_program)
        before = session.coverage_count
        session.run_test(memory_program)
        assert session.coverage_count >= before
        assert session.coverage_count >= first.new_points.bit_count()

    def test_bug_detection_recorded_once(self, session):
        trigger = _program(
            Instruction("csrrs", rd=5, rs1=0, csr=0x7B0),
            Instruction("ecall"),
        )
        first = session.run_test(trigger)
        assert first.detected_bugs == {"V6"}
        assert session.bug_detections["V6"].test_index == 0
        session.run_test(trigger)
        # The first detection is kept, not overwritten.
        assert session.bug_detections["V6"].test_index == 0
        assert session.mismatching_tests == 2

    def test_clean_program_no_mismatch(self, session, straightline_program):
        outcome = session.run_test(straightline_program)
        assert outcome.mismatch is None
        assert outcome.detected_bugs == frozenset()

    def test_undetected_bugs(self):
        session = FuzzSession(RocketModel())
        assert session.undetected_bugs() == ["V7"]
        trigger = _program(
            Instruction("ebreak"),
            Instruction("csrrs", rd=5, rs1=0, csr=csrdefs.MINSTRET),
            Instruction("ecall"),
        )
        session.run_test(trigger)
        assert session.undetected_bugs() == []

    def test_total_points_matches_dut_space(self, session):
        assert session.total_points == session.dut.total_coverage_points


class TestGoldenTraceCache:
    def test_duplicate_program_hits_cache(self, session, straightline_program):
        session.run_test(straightline_program)
        assert session.golden_cache_misses == 1
        assert session.golden_cache_hits == 0
        session.run_test(straightline_program)
        assert session.golden_cache_hits == 1
        assert session.golden_cache_misses == 1

    def test_equal_content_different_provenance_hits(self, session):
        body = (Instruction("addi", rd=1, rs1=0, imm=5), Instruction("ecall"))
        session.run_test(_program(*body))
        session.run_test(_program(*body))  # distinct program_id, same words
        assert session.golden_cache_hits == 1

    def test_distinct_programs_miss(self, session, straightline_program,
                                    memory_program):
        session.run_test(straightline_program)
        session.run_test(memory_program)
        assert session.golden_cache_hits == 0
        assert session.golden_cache_misses == 2

    def test_cached_outcomes_identical(self, session, straightline_program):
        first = session.run_test(straightline_program)
        second = session.run_test(straightline_program)
        assert first.mismatch is None and second.mismatch is None
        assert first.coverage == second.coverage

    def test_shared_cache_keys_on_model_config(self, straightline_program):
        """Different golden configurations must never share cache entries."""
        from repro.sim.executor import ExecutorConfig
        from repro.sim.golden import GoldenModel, GoldenTraceCache

        cache = GoldenTraceCache()
        counting = GoldenModel(ExecutorConfig(count_trapped_instructions=True))
        skipping = GoldenModel(ExecutorConfig(count_trapped_instructions=False))
        cache.get_or_run(counting, straightline_program)
        cache.get_or_run(skipping, straightline_program)
        assert cache.stats()["misses"] == 2 and cache.stats()["hits"] == 0
        cache.get_or_run(counting, straightline_program)
        assert cache.stats()["hits"] == 1

    def test_stats_surface_cache_counters(self, session, straightline_program):
        session.run_test(straightline_program)
        session.run_test(straightline_program)
        stats = session.stats()
        assert stats["golden_cache_hits"] == 1
        assert stats["golden_cache_misses"] == 1
        assert stats["tests_executed"] == 2


class TestGoldenCacheInCampaign:
    def test_duplicate_seeds_in_campaign_hit_cache(self):
        """A campaign that replays a seed must serve it from the trace cache."""
        from repro.fuzzing.base import Fuzzer, FuzzerConfig

        class ReplayFuzzer(Fuzzer):
            """Degenerate fuzzer: schedules the same seed every iteration."""

            name = "replay"

            def __init__(self, dut, **kwargs):
                super().__init__(dut, **kwargs)
                self._seed = self.seed_generator.generate()

            def _next_test(self):
                return self._seed

            def _after_test(self, program, outcome):
                pass

        fuzzer = ReplayFuzzer(CVA6Model(bugs=[]),
                              config=FuzzerConfig(num_seeds=1), rng=7)
        result = fuzzer.run(4)
        assert result.metadata["golden_cache_hits"] >= 1
        assert result.metadata["golden_cache_misses"] == 1
        assert fuzzer.session.golden_cache_hits == 3
