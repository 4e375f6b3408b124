"""Tests for the shared fuzzing session plumbing."""

import gc
import types

import pytest

from repro.api import make_fuzzer
from repro.exec.cache import DutRunCache, process_cache_stats, process_golden_cache
from repro.fuzzing.base import FuzzerConfig
from repro.fuzzing.differential import DifferentialReport, DifferentialTester, Mismatch
from repro.fuzzing.session import FuzzSession
from repro.harness.campaign import CampaignSpec, run_campaign
from repro.isa import csr as csrdefs
from repro.isa.instruction import Instruction
from repro.isa.program import TestProgram
from repro.rtl.cva6 import CVA6Model
from repro.rtl.harness import DutModel, DutRunResult
from repro.rtl.rocket import RocketModel
from repro.sim.golden import GoldenModel, GoldenTraceCache
from repro.sim.trace import CommitRecord, ExecutionResult, HaltReason
from tests.integration.test_coverage_masks import _calls_by_code


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


def _trigger(tag):
    """A program that fires V6 on CVA6 (a read of ``dcsr``); ``tag`` makes
    its words unique, so the process golden cache has not seen them."""
    return _program(
        Instruction("addi", rd=1, rs1=0, imm=tag),
        Instruction("csrrs", rd=5, rs1=0, csr=0x7B0),
        Instruction("ecall"),
    )


def _golden_traffic(fn, *args):
    """Call ``fn(*args)``; return the (hits, misses) it made on the process
    golden cache."""
    cache = process_golden_cache()
    hits, misses = cache.hits, cache.misses
    fn(*args)
    return cache.hits - hits, cache.misses - misses


class TestGoldenTraceCache:
    """A test in which a bug fired takes its golden run from the process's
    one golden cache."""

    def test_duplicate_program_hits_cache(self, session):
        program = _trigger(101)
        assert _golden_traffic(session.run_test, program) == (0, 1)
        assert _golden_traffic(session.run_test, program) == (1, 0)

    def test_equal_content_different_provenance_hits(self, session):
        session.run_test(_trigger(102))
        # A distinct program_id with the same words.
        assert _golden_traffic(session.run_test, _trigger(102)) == (1, 0)

    def test_distinct_programs_miss(self, session):
        assert _golden_traffic(session.run_test, _trigger(103)) == (0, 1)
        assert _golden_traffic(session.run_test, _trigger(104)) == (0, 1)

    def test_cached_outcomes_identical(self, session):
        first = session.run_test(_trigger(105))
        second = session.run_test(_trigger(105))
        assert first.mismatch is not None
        assert first.mismatch == second.mismatch
        assert first.detected_bugs == second.detected_bugs == {"V6"}
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

    def test_stats_surface_cache_counters(self, session):
        """The process cache read-out carries the session's golden traffic."""
        before = process_cache_stats()
        session.run_test(_trigger(106))
        session.run_test(_trigger(106))
        after = process_cache_stats()
        assert after["shared_golden_hits"] - before["shared_golden_hits"] == 1
        assert after["shared_golden_misses"] - before["shared_golden_misses"] == 1
        assert session.tests_executed == 2


class TestGoldenCacheInCampaign:
    def test_duplicate_seeds_in_campaign_hit_cache(self):
        """A campaign that replays a seed whose bug fires serves its golden
        run from the process cache, and its result carries no cache
        counters."""
        from repro.fuzzing.base import Fuzzer, FuzzerConfig

        class ReplayFuzzer(Fuzzer):
            """Degenerate fuzzer: schedules the same seed every iteration."""

            name = "replay"

            def _next_test(self):
                return _trigger(107)

            def _after_test(self, program, outcome):
                pass

        fuzzer = ReplayFuzzer(CVA6Model(bugs=["V6"]),
                              config=FuzzerConfig(num_seeds=1), rng=7)
        assert _golden_traffic(fuzzer.run, 4) == (3, 1)
        assert fuzzer.session.bug_detections["V6"].test_index == 0
        assert fuzzer.session.mismatching_tests == 4


class TestGoldenRunsOnlyWhereABugFired:
    """Seeded 100-test MABFuzz-UCB trials run the golden model and the
    trace compare exactly for the tests in which a bug fired."""

    #: ``run_campaign`` installs no DUT cache, so every test whose bug
    #: fired reaches the golden cache.
    _CODES = (GoldenTraceCache.get_or_run.__code__,
              DifferentialTester.check.__code__)

    def _trial(self, processor, monkeypatch):
        """Run the trial; return (tests whose bug fired, golden cache
        calls, differential checks)."""
        fired = 0
        run = DutModel.run

        def counted(model, program, max_steps=None):
            nonlocal fired
            result = run(model, program, max_steps)
            fired += bool(result.fired_bugs)
            return result

        monkeypatch.setattr(DutModel, "run", counted)
        spec = CampaignSpec(processor, "mabfuzz:ucb", num_tests=100,
                            trials=1, seed=1)
        result, calls = _calls_by_code(self._CODES, run_campaign, spec)
        assert len(result.coverage_curve) == 100
        return (fired, *(calls[code] for code in self._CODES))

    def test_clean_boom_runs_no_golden_model(self, monkeypatch):
        assert self._trial("boom", monkeypatch) == (0, 0, 0)

    def test_rocket_checks_each_test_whose_bug_fired(self, monkeypatch):
        fired, golden, checks = self._trial("rocket", monkeypatch)
        assert 0 < fired < 100
        assert golden == checks == fired


def _loop(*body):
    """``body`` then a jump back to its start: a loop that runs to the step limit."""
    return _program(*body, Instruction("jal", rd=0, imm=-4 * len(body)))


def _reachable(root):
    """The objects ``gc.get_referents`` reaches from ``root``, not
    descending into classes, modules or functions."""
    seen, stack = {}, [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen[id(obj)] = obj
        stack.extend(gc.get_referents(obj))
    return seen.values()


class TestCachedOutcome:
    """A session with a DUT cache reads a repeated test from its entry:
    coverage, halt reason and differential report, not the runs."""

    @pytest.mark.parametrize("program, mismatch, halt_reason", [
        (_program(Instruction("addi", rd=1, rs1=0, imm=5), Instruction("ecall")),
         False, HaltReason.ECALL),
        (_trigger(108), True, HaltReason.ECALL),
        (_loop(Instruction("addi", rd=1, rs1=1, imm=1)), False, HaltReason.STEP_LIMIT),
    ], ids=["clean", "trigger", "step-limit"])
    def test_hit_equals_a_fresh_session(self, program, mismatch, halt_reason):
        def fields(outcome):
            return (outcome.coverage, outcome.mismatch, outcome.detected_bugs,
                    outcome.halt_reason)

        cache = DutRunCache()
        miss, hit = (FuzzSession(CVA6Model(bugs=["V6"]), dut_cache=cache).run_test(program)
                     for _ in range(2))
        fresh = FuzzSession(CVA6Model(bugs=["V6"])).run_test(program)
        assert (cache.hits, cache.misses) == (1, 1)
        assert fields(miss) == fields(hit) == fields(fresh)
        assert (fresh.mismatch is not None, fresh.halt_reason) == (mismatch, halt_reason)

    def test_no_entry_references_a_run(self):
        cache = DutRunCache()
        session = FuzzSession(CVA6Model(bugs=["V6"]), dut_cache=cache)
        for program in (_program(Instruction("ecall")), _trigger(109),
                        _loop(Instruction("csrrs", rd=5, rs1=0, csr=0x7B0))):
            session.run_test(program)
        found = {type(obj) for obj in _reachable(cache)}
        assert not found & {DutRunResult, ExecutionResult, CommitRecord}
        assert {DifferentialReport, Mismatch, HaltReason} <= found  # the walk reached them

    def test_repeated_trigger_runs_golden_and_compare_once(self):
        cache = DutRunCache()
        codes = (GoldenModel.run.__code__, DifferentialTester.check.__code__)

        def sessions():
            for _ in range(3):
                session = FuzzSession(CVA6Model(bugs=["V6"]), dut_cache=cache)
                for _ in range(2):
                    assert session.run_test(_trigger(110)).detected_bugs == {"V6"}
                assert session.bug_detections["V6"].test_index == 0

        traffic, calls = _calls_by_code(codes, _golden_traffic, sessions)
        assert [calls[code] for code in codes] == [1, 1]
        assert traffic == (0, 1)
        assert (cache.hits, cache.misses) == (5, 1)


class TestStepLimit:
    def test_max_program_steps_bounds_the_dut_and_golden_runs(self, monkeypatch):
        """``FuzzerConfig.max_program_steps`` is the limit of every run of
        the fuzzer's tests."""
        limits = []

        def recording(run):
            def wrapper(model, program, max_steps=None):
                result = run(model, program, max_steps)
                execution = getattr(result, "execution", result)
                limits.append((type(model).__name__, execution.halt_reason, execution.steps))
                return result

            return wrapper

        monkeypatch.setattr(DutModel, "run", recording(DutModel.run))
        monkeypatch.setattr(GoldenModel, "run", recording(GoldenModel.run))
        fuzzer = make_fuzzer("thehuzz", CVA6Model(bugs=["V6"]),
                             fuzzer_config=FuzzerConfig(max_program_steps=16), rng=1)
        outcome = fuzzer.session.run_test(_loop(Instruction("addi", rd=1, rs1=0, imm=111),
                                                Instruction("csrrs", rd=5, rs1=0, csr=0x7B0)))
        assert outcome.detected_bugs == {"V6"}
        assert limits == [("CVA6Model", HaltReason.STEP_LIMIT, 16),
                          ("GoldenModel", HaltReason.STEP_LIMIT, 16)]


class TestFamilyCounts:
    """Trial-end trap and CSR-transition counts come off the covered mask."""

    def _session(self, coverage_model):
        from repro.isa.scenarios import TrapScenarioGenerator

        session = FuzzSession(CVA6Model(coverage_model=coverage_model))
        for program in TrapScenarioGenerator(rng=7).generate_many(6):
            session.run_test(program)
        return session

    @pytest.mark.parametrize("coverage_model", ["base", "csr"])
    def test_counts_equal_the_named_families(self, coverage_model):
        from repro.coverage.csr_transitions import is_transition_point

        session = self._session(coverage_model)
        covered = session.coverage_db.covered
        counts = session.family_counts()
        assert counts == {
            "csr_transition_points": sum(map(is_transition_point, covered)),
            "trap_points": sum(p.startswith("trap.") for p in covered)}
        assert counts["trap_points"] > 0
        assert (counts["csr_transition_points"] > 0) == (coverage_model == "csr")

    def test_counting_builds_no_point_names(self, monkeypatch):
        from repro.coverage import database

        session = self._session("csr")

        def no_names(cov):
            raise AssertionError("a mask was expanded into names")

        monkeypatch.setattr(database, "points_of", no_names)
        with pytest.raises(AssertionError):
            session.coverage_db.covered  # the names the old count read
        assert session.family_counts()["trap_points"] > 0
