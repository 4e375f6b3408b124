"""Per-process run caches; one bound and one read-out for every process cache.

The DUT models are deterministic: a test's outcome depends only on the
program words, the load address, the step limit and the DUT's full
configuration (microarchitecture parameters + injected bug set).
Campaigns replay programs constantly -- MABFuzz arms re-run their seeds,
mutants duplicate each other -- so every grid trial routes its tests
through a process-local :class:`DutRunCache`.  Its entries hold only what
a session reads of a test, never a commit trace: a process keeps up to
4,096 of them (docs/performance.md, "A cached test is its outcome").

A worker process keeps four caches, each a
:class:`~repro.utils.lru.LRUCache`: test outcomes (:func:`process_dut_cache`),
golden runs (:func:`repro.sim.golden.process_golden_cache`, which the
fuzzing session consults only on a DUT-cache miss in which a bug fired),
compiled programs (:func:`repro.isa.compiled.process_compiled_cache`) and
superblocks, keyed by their words
(:func:`repro.isa.compiled.process_block_table`).
:func:`configure_process_caches` is their one bound and
:func:`process_cache_stats` their one counter read-out.

The caches are *process-local by design*: worker processes each build
their own, so no locking or shared memory is needed and a cached entry can
never leak between incompatible DUT configurations running in other
workers.  Cached entries are shared and must be treated as read-only.

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
from repro.sim.golden import process_golden_cache
from repro.utils.lru import DEFAULT_CACHE_ENTRIES, LRUCache


class DutRunCache(LRUCache):
    """Program-and-configuration-keyed cache of test outcomes.

    :meth:`repro.fuzzing.session.FuzzSession.run_test` builds an entry on
    a miss and reads it on a hit: ``(coverage mask, halt reason,
    differential report)``.  The report's golden run is keyed too: a
    session builds its golden model from its DUT's executor config and
    layout.
    """

    def __init__(self, max_entries: int = DEFAULT_CACHE_ENTRIES) -> None:
        super().__init__(max_entries)
        #: each DUT identity keyed so far -> the int standing for it in keys.
        self._identities: Dict[Tuple, int] = {}

    def identity(self, dut: DutModel, max_steps: Optional[int] = None) -> int:
        """The DUT part of a key: step limit + full DUT identity, as an int
        a session builds once, so a lookup hashes no configuration object.

        The bug set is part of it (sorted ids), so one worker can interleave
        trials against differently-bugged instances of the same core.  So
        is the coverage model: a ``"csr"`` run's coverage set is a strict
        superset of the ``"base"`` run's.
        """
        content = (max_steps or dut.executor_config.step_limit, dut.name, dut.config,
                   tuple(sorted(bug.bug_id for bug in dut.bugs)),
                   dut.executor_config, dut.layout, dut.coverage_model)
        return self._identities.setdefault(content, len(self._identities))

    @staticmethod
    def key(program: TestProgram, identity: int) -> Tuple:
        """Cache key: program words + base address + the DUT's :meth:`identity`."""
        return (program.words(), program.base_address, identity)


_PROCESS_CACHE = DutRunCache()


def process_dut_cache() -> DutRunCache:
    """The calling process's shared :class:`DutRunCache`.

    Trial workers route every test through this instance so that trials
    of the same spec executed back-to-back in one worker reuse each other's
    seed-program outcomes.  Worker recycling (``max_tasks_per_child``) resets
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
