"""Tests for the per-process DUT cache of test outcomes and the process golden cache."""

import pytest

from repro.api import make_processor
from repro.exec.cache import (
    DutRunCache,
    configure_process_caches,
    process_cache_stats,
    process_dut_cache,
    process_golden_cache,
)
from repro.fuzzing.session import FuzzSession
from repro.isa.generator import SeedGenerator
from repro.sim.golden import GoldenModel, GoldenTraceCache


@pytest.fixture()
def programs():
    return SeedGenerator(rng=11).generate_many(3)


def _run(cache, dut, program, max_steps=None):
    """``program``'s outcome from a fresh session whose tests go through ``cache``."""
    return FuzzSession(dut, dut_cache=cache, max_steps=max_steps).run_test(program)


class TestDutRunCache:
    def test_invalid_bound(self):
        with pytest.raises(ValueError):
            DutRunCache(max_entries=0)

    def test_hit_returns_identical_result(self, programs):
        cache = DutRunCache()
        dut = make_processor("rocket", bugs=[])
        first = _run(cache, dut, programs[0])
        second = _run(cache, dut, programs[0])
        assert cache.hits == 1 and cache.misses == 1
        entry = cache.lookup(cache.key(programs[0], cache.identity(dut)))
        assert second.coverage is first.coverage is entry[0]  # shared, read-only

    def test_cached_result_matches_direct_run(self, programs):
        cache = DutRunCache()
        dut = make_processor("rocket", bugs=[])
        _run(cache, dut, programs[1])
        coverage, halt_reason, report = cache.lookup(
            cache.key(programs[1], cache.identity(dut)))
        direct = dut.run(programs[1])
        assert coverage == direct.coverage
        assert halt_reason == direct.execution.halt_reason
        assert report.mismatch is None and not direct.fired_bugs

    def test_bug_set_partitions_the_key(self, programs):
        cache = DutRunCache()
        clean = make_processor("cva6", bugs=[])
        bugged = make_processor("cva6", bugs=["V5"])
        _run(cache, clean, programs[0])
        _run(cache, bugged, programs[0])
        assert cache.misses == 2 and cache.hits == 0
        assert len(cache) == 2

    def test_different_processors_do_not_collide(self, programs):
        cache = DutRunCache()
        _run(cache, make_processor("rocket", bugs=[]), programs[0])
        _run(cache, make_processor("boom", bugs=[]), programs[0])
        assert cache.misses == 2 and cache.hits == 0

    def test_step_limit_partitions_the_key(self, programs):
        cache = DutRunCache()
        dut = make_processor("rocket", bugs=[])
        default = dut.executor_config.step_limit
        for max_steps in (None, default, 16):
            _run(cache, dut, programs[0], max_steps)
        # An unset limit is the executor's default: one entry for both.
        assert (cache.hits, cache.misses) == (1, 2)
        assert cache.identity(dut) == cache.identity(dut, default)
        assert cache.identity(dut) != cache.identity(dut, 16)

    def test_eviction_bound(self, programs):
        cache = DutRunCache(max_entries=2)
        dut = make_processor("rocket", bugs=[])
        for program in programs:
            _run(cache, dut, program)
        assert len(cache) <= 2
        assert cache.evictions == 1  # 3 programs through a 2-entry cache

    def test_lru_spills_least_recently_used(self, programs):
        cache = DutRunCache(max_entries=2)
        dut = make_processor("rocket", bugs=[])
        _run(cache, dut, programs[0])
        _run(cache, dut, programs[1])
        _run(cache, dut, programs[0])  # touch 0: now 1 is LRU
        _run(cache, dut, programs[2])  # spills 1, keeps 0
        hits_before = cache.hits
        _run(cache, dut, programs[0])
        assert cache.hits == hits_before + 1  # 0 survived the spill
        _run(cache, dut, programs[1])  # 1 was spilled: a miss
        assert cache.misses == 4

    def test_configure_shrinks_and_respills(self, programs):
        cache = DutRunCache(max_entries=8)
        dut = make_processor("rocket", bugs=[])
        for program in programs:
            _run(cache, dut, program)
        cache.configure(1)
        assert len(cache) == 1
        assert cache.max_entries == 1
        assert cache.evictions == 2
        with pytest.raises(ValueError):
            cache.configure(0)

    def test_stats_and_clear(self, programs):
        cache = DutRunCache()
        dut = make_processor("rocket", bugs=[])
        _run(cache, dut, programs[0])
        stats = cache.stats()
        assert stats["misses"] == 1 and stats["entries"] == 1
        assert stats["evictions"] == 0
        cache.clear()
        assert len(cache) == 0


class TestGoldenTraceCache:
    def test_repeat_is_served_from_cache(self, programs):
        cache = GoldenTraceCache()
        golden = GoldenModel()
        a = cache.get_or_run(golden, programs[0])
        b = cache.get_or_run(golden, programs[0])
        assert a is b and (cache.hits, cache.misses) == (1, 1)


class TestProcessCaches:
    def test_process_caches_are_singletons(self):
        assert process_dut_cache() is process_dut_cache()
        assert isinstance(process_dut_cache(), DutRunCache)
        assert process_golden_cache() is process_golden_cache()
        assert isinstance(process_golden_cache(), GoldenTraceCache)

    def test_configure_process_caches(self):
        from repro.exec.cache import DEFAULT_CACHE_ENTRIES
        from repro.isa.compiled import process_compiled_cache

        try:
            configure_process_caches(77)
            assert process_dut_cache().max_entries == 77
            assert process_golden_cache().max_entries == 77
            assert process_compiled_cache().max_entries == 77
        finally:
            configure_process_caches(None)  # None restores the default bound
        assert process_dut_cache().max_entries == DEFAULT_CACHE_ENTRIES
        assert process_golden_cache().max_entries == DEFAULT_CACHE_ENTRIES
        assert process_compiled_cache().max_entries == DEFAULT_CACHE_ENTRIES

    def test_process_cache_stats_keys(self):
        stats = process_cache_stats()
        assert set(stats) == {"dut_cache_hits", "dut_cache_misses",
                              "dut_cache_evictions", "shared_golden_hits",
                              "shared_golden_misses",
                              "shared_golden_evictions",
                              "compiled_trace_hits", "compiled_trace_misses",
                              "compiled_trace_evictions",
                              "superblock_hits", "superblock_misses",
                              "superblock_evictions"}

    def test_configure_spill_evictions_survive_in_batch_deltas(self):
        """Regression: re-bounding mid-grid must not lose eviction deltas.

        ``execute_batch`` snapshots counters *before* re-bounding the
        worker caches; evictions spilled by a shrinking ``--cache-entries``
        bound therefore land in that batch's delta instead of vanishing
        between two snapshots.
        """
        from repro.exec.batching import TrialTask, execute_batch, plan_batches
        from repro.fuzzing.base import FuzzerConfig
        from repro.harness.campaign import CampaignSpec

        spec = CampaignSpec(processor="rocket", fuzzer="thehuzz", num_tests=6,
                            trials=1, seed=123, bugs=[],
                            fuzzer_config=FuzzerConfig(num_seeds=3,
                                                       mutants_per_test=2))
        tasks = [TrialTask(spec_index=0, trial_index=0, spec=spec)]
        try:
            # Warm the process caches well past the tiny bound below.
            [warm] = plan_batches(tasks, cache_entries=None)
            execute_batch(warm)
            assert len(process_dut_cache()) > 1
            evictions_before = process_dut_cache().evictions

            [shrunk] = plan_batches(tasks, cache_entries=1)
            payload = execute_batch(shrunk)
            spilled = process_dut_cache().evictions - evictions_before
            assert spilled > 0, "shrinking the bound must spill entries"
            # The spill is attributed to the batch that requested the bound.
            assert payload["cache_stats"]["dut_cache_evictions"] >= spilled
        finally:
            configure_process_caches(None)
