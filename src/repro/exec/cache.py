"""Per-process run caches; one bound and one read-out for every process cache.

The DUT models are deterministic: a :class:`~repro.rtl.harness.DutRunResult`
depends only on the program words, the load address, the step limit and the
DUT's full configuration (microarchitecture parameters + injected bug set).
Campaigns replay programs constantly -- MABFuzz arms re-run their seeds,
mutants duplicate each other -- so the execution workers route every DUT
run through a process-local cache.

A worker process keeps four caches, each a
:class:`~repro.utils.lru.LRUCache`: DUT runs (:func:`process_dut_cache`),
golden runs (:func:`repro.sim.golden.process_golden_cache`, which the
fuzzing session consults only for a test in which a bug fired), compiled
programs (:func:`repro.isa.compiled.process_compiled_cache`) and
superblocks, keyed by their words
(:func:`repro.isa.compiled.process_block_table`).
:func:`configure_process_caches` is their one bound and
:func:`process_cache_stats` their one counter read-out.

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

from repro.isa.compiled import process_block_table, process_compiled_cache
from repro.isa.program import TestProgram
from repro.rtl.harness import DutModel
from repro.sim.golden import KeyedRunCache, process_golden_cache
from repro.utils.lru import DEFAULT_CACHE_ENTRIES


class DutRunCache(KeyedRunCache):
    """Program-and-configuration-keyed cache of instrumented DUT runs.

    Shares its mechanics (counters, eviction, stats) with
    :class:`~repro.sim.golden.GoldenTraceCache` via
    :class:`~repro.sim.golden.KeyedRunCache`; only the key differs.
    """

    @staticmethod
    def key(dut: DutModel, program: TestProgram, step_limit: int) -> Tuple:
        """Cache key: program words + base address + step limit + full DUT identity.

        The bug set is part of the key (sorted ids), so one worker can
        interleave trials against differently-bugged instances of the same
        core without cross-talk.  The coverage model is part of the DUT
        identity too: a ``"csr"`` run's coverage set is a strict superset
        of the ``"base"`` run's, so the two must never serve each other.
        """
        return (program.words(), program.base_address, step_limit, dut.name, dut.config,
                tuple(sorted(bug.bug_id for bug in dut.bugs)),
                dut.executor_config, dut.layout, dut.coverage_model)


_PROCESS_CACHE = DutRunCache()


def process_dut_cache() -> DutRunCache:
    """The calling process's shared :class:`DutRunCache`.

    Trial workers route every DUT run through this instance so that trials
    of the same spec executed back-to-back in one worker reuse each other's
    seed-program runs.  Worker recycling (``max_tasks_per_child``) resets
    it together with the rest of the interpreter state.
    """
    return _PROCESS_CACHE


def configure_process_caches(cache_entries: Optional[int]) -> None:
    """Re-bound the process caches (``None`` = :data:`DEFAULT_CACHE_ENTRIES`).

    Called by the batch executor before every batch with the engine's
    ``cache_entries`` knob, so a worker always runs a batch under exactly
    the capacity that batch was planned with -- a previous grid's bound
    never leaks into the next.  Shrinking spills LRU entries immediately
    (the spill's evictions still count: callers snapshot counters *before*
    configuring, see :func:`repro.exec.batching.execute_batch`).  The
    compiled-program cache and the block table are bounded alongside the
    run caches so one knob governs all per-worker memory.
    """
    bound = DEFAULT_CACHE_ENTRIES if cache_entries is None else cache_entries
    for cache in (_PROCESS_CACHE, process_golden_cache(),
                  process_compiled_cache(), process_block_table()):
        cache.configure(bound)


def process_cache_stats() -> Dict[str, int]:
    """Cumulative hit/miss/eviction counters of this process's caches.

    The ``superblock_*`` counters are the block table's own: a compiled
    program looks each leader's block up once, so a hit is a block another
    program (or an earlier compilation of this one) built -- a mutant
    reusing the blocks its mutation did not touch.
    """
    stats = {}
    for prefix, cache in (("dut_cache", _PROCESS_CACHE),
                          ("shared_golden", process_golden_cache()),
                          ("compiled_trace", process_compiled_cache()),
                          ("superblock", process_block_table())):
        stats[f"{prefix}_hits"] = cache.hits
        stats[f"{prefix}_misses"] = cache.misses
        stats[f"{prefix}_evictions"] = cache.evictions
    return stats
