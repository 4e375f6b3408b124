"""Per-process run caches; one bound and one read-out for every process cache.

The DUT models are deterministic: a :class:`~repro.rtl.harness.DutRunResult`
depends only on the program words, the load address, the step limit and the
DUT's full configuration (microarchitecture parameters + injected bug set).
Campaigns replay programs constantly -- MABFuzz arms re-run their seeds,
mutants duplicate each other -- so caching DUT runs removes the second half
of the per-iteration simulation cost the same way
:class:`~repro.sim.golden.GoldenTraceCache` removes the golden half.

A worker process keeps three caches, each a
:class:`~repro.utils.lru.LRUCache`: DUT runs (:func:`process_dut_cache`),
golden runs (:func:`process_golden_cache`, the fallback behind every
trial's session cache) and compiled programs
(:func:`repro.isa.compiled.process_compiled_cache`, whose entries also
hold each program's superblock table).  :func:`configure_process_caches`
is their one bound and :func:`process_cache_stats` their one counter
read-out.

The caches are *process-local by design*: worker processes each build
their own, so no locking or shared memory is needed and a cached entry can
never leak between incompatible DUT configurations running in other
workers.  Cached :class:`DutRunResult` objects are frozen and must be
treated as read-only, which every consumer (differential tester, coverage
database) already does.

Cache hits never change campaign results -- only wall-clock -- so the
hit/miss counters are deliberately *not* copied into
:class:`~repro.fuzzing.results.FuzzCampaignResult` metadata: a worker's
counters depend on which trials it happened to execute before, and result
payloads must stay bit-identical between serial and parallel backends.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.isa.compiled import process_compiled_cache
from repro.isa.program import TestProgram
from repro.rtl.harness import DutModel
from repro.sim.golden import GoldenTraceCache, KeyedRunCache
from repro.utils.lru import DEFAULT_CACHE_ENTRIES


class DutRunCache(KeyedRunCache):
    """Program-and-configuration-keyed cache of instrumented DUT runs.

    Shares its mechanics (counters, eviction, stats) with
    :class:`~repro.sim.golden.GoldenTraceCache` via
    :class:`~repro.sim.golden.KeyedRunCache`; only the key differs.
    """

    @staticmethod
    def key(dut: DutModel, program: TestProgram, step_limit: int) -> Tuple:
        """Cache key: program fingerprint + step limit + full DUT identity.

        The bug set is part of the key (sorted ids), so one worker can
        interleave trials against differently-bugged instances of the same
        core without cross-talk.  The coverage model is part of the DUT
        identity too: a ``"csr"`` run's coverage set is a strict superset
        of the ``"base"`` run's, so the two must never serve each other.
        """
        return (program.fingerprint(), step_limit, dut.name, dut.config,
                tuple(sorted(bug.bug_id for bug in dut.bugs)),
                dut.executor_config, dut.layout, dut.coverage_model)


_PROCESS_CACHE = DutRunCache()
_PROCESS_GOLDEN_CACHE = GoldenTraceCache()


def process_dut_cache() -> DutRunCache:
    """The calling process's shared :class:`DutRunCache`.

    Trial workers route every DUT run through this instance so that trials
    of the same spec executed back-to-back in one worker reuse each other's
    seed-program runs.  Worker recycling (``max_tasks_per_child``) resets
    it together with the rest of the interpreter state.
    """
    return _PROCESS_CACHE


def process_golden_cache() -> GoldenTraceCache:
    """The calling process's shared golden-trace cache.

    Installed as the *fallback* of every trial's session-level
    :class:`~repro.sim.golden.GoldenTraceCache` by the batch executor, so
    one golden run of a repeated program serves every trial a worker
    executes -- without touching the per-trial session counters that go
    into result metadata (see :class:`~repro.sim.golden.KeyedRunCache`).
    """
    return _PROCESS_GOLDEN_CACHE


def configure_process_caches(cache_entries: Optional[int]) -> None:
    """Re-bound the process caches (``None`` = :data:`DEFAULT_CACHE_ENTRIES`).

    Called by the batch executor before every batch with the engine's
    ``cache_entries`` knob, so a worker always runs a batch under exactly
    the capacity that batch was planned with -- a previous grid's bound
    never leaks into the next.  Shrinking spills LRU entries immediately
    (the spill's evictions still count: callers snapshot counters *before*
    configuring, see :func:`repro.exec.batching.execute_batch`).  The
    compiled-program cache is bounded alongside the run caches so one knob
    governs all per-worker memory.
    """
    bound = DEFAULT_CACHE_ENTRIES if cache_entries is None else cache_entries
    for cache in (_PROCESS_CACHE, _PROCESS_GOLDEN_CACHE,
                  process_compiled_cache()):
        cache.configure(bound)


def process_cache_stats() -> Dict[str, int]:
    """Cumulative hit/miss/eviction counters of this process's caches.

    A program's superblock table lives on its compiled entry, so the
    ``superblock_*`` counters repeat the ``compiled_trace_*`` ones; they
    are kept because perfbench's tracer reports both.
    """
    compiled = process_compiled_cache()
    stats = {}
    for prefix, cache in (("dut_cache", _PROCESS_CACHE),
                          ("shared_golden", _PROCESS_GOLDEN_CACHE),
                          ("compiled_trace", compiled),
                          ("superblock", compiled)):
        stats[f"{prefix}_hits"] = cache.hits
        stats[f"{prefix}_misses"] = cache.misses
        stats[f"{prefix}_evictions"] = cache.evictions
    return stats
