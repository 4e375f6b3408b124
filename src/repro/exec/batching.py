"""Batched trial execution shared by every backend.

A :class:`TrialBatch` groups :class:`TrialTask` work
units that share a cache-locality prefix -- the same DUT configuration
(processor + injected bug set) -- so one worker executes them back to back:
the first trial warms the process-level DUT-run cache and the shared
golden-trace cache, and every later trial of the batch replays repeated
programs out of them.  Batches are also the unit of *distribution*: one
pool submission, one spool-queue file.

Batching is pure scheduling.  Trial results are derived from the spec
content alone, so grouping (or not grouping) tasks can never change a
``FuzzCampaignResult`` -- only wall-clock and cache traffic.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.exec.cache import (
    configure_process_caches,
    process_cache_stats,
    process_dut_cache,
    process_golden_cache,
)
from repro.harness.campaign import CampaignSpec, run_campaign
from repro.utils.collector import collection_paused

#: default cap on tasks per batch: large enough to amortize warm-up, small
#: enough that a grid still spreads across a handful of workers.
DEFAULT_BATCH_SIZE = 4


@dataclass(frozen=True)
class TrialTask:
    """One unit of backend work: trial ``trial_index`` of ``spec``.

    ``spec_index`` is the spec's position in the submitted grid; backends
    carry it through untouched so the engine can reassemble results
    without re-deriving fingerprints.
    """

    spec_index: int
    trial_index: int
    spec: CampaignSpec


@dataclass(frozen=True)
class TrialBatch:
    """A group of tasks one worker executes back to back.

    Attributes:
        index: position of this batch in the planned sequence (also its
            identity on the spool queue).
        tasks: the grouped tasks, in grid submission order.
        cache_entries: process-cache capacity to apply before executing
            (``None`` = the default bound,
            :data:`~repro.exec.cache.DEFAULT_CACHE_ENTRIES` -- a previous
            grid's bound never leaks into this batch).
        corpus: accumulated corpus state (a
            :meth:`~repro.fuzzing.corpus.CorpusManager.to_payload` dict)
            injected by the backend right before execution, or ``None``
            for corpus-off batches.  Purely additive feedback: it is not
            part of batch identity and never set at planning time.
    """

    index: int
    tasks: Tuple[TrialTask, ...]
    cache_entries: Optional[int] = None
    corpus: Optional[Dict[str, object]] = None


def task_uses_corpus(task: TrialTask) -> bool:
    """Whether ``task``'s spec runs with the coverage-directed corpus."""
    config = task.spec.fuzzer_config
    return config is not None and config.corpus


def batch_uses_corpus(batch: TrialBatch) -> bool:
    """Whether any task of ``batch`` runs with the corpus enabled."""
    return any(task_uses_corpus(task) for task in batch.tasks)


def batch_key(task: TrialTask) -> Tuple:
    """Cache-locality key: tasks sharing it warm each other's caches.

    The DUT-run cache is keyed on the full DUT identity, so only tasks
    with the same (processor, bug set, coverage model) can serve each
    other's DUT runs; the shared golden cache is keyed on the executor
    config, which those tasks share too.
    """
    spec = task.spec
    bugs = tuple(sorted(spec.bugs)) if spec.bugs is not None else None
    return (spec.processor, bugs, spec.coverage_model)


def plan_batches(tasks: Sequence[TrialTask],
                 batch_size: Optional[int] = DEFAULT_BATCH_SIZE,
                 cache_entries: Optional[int] = None) -> List[TrialBatch]:
    """Group ``tasks`` into batches by :func:`batch_key`, preserving order.

    Groups are emitted in order of first appearance and chunked to at most
    ``batch_size`` tasks (``None`` = unbounded), so the plan is a pure
    function of the task list -- every backend produces the same batches
    for the same grid.
    """
    if batch_size is not None and batch_size < 1:
        raise ValueError("batch_size must be >= 1 or None")
    groups: Dict[Tuple, List[TrialTask]] = {}
    for task in tasks:
        groups.setdefault(batch_key(task), []).append(task)
    batches: List[TrialBatch] = []
    for group in groups.values():
        size = batch_size or len(group)
        for start in range(0, len(group), size):
            batches.append(TrialBatch(index=len(batches),
                                      tasks=tuple(group[start:start + size]),
                                      cache_entries=cache_entries))
    return batches


def execute_batch(batch: TrialBatch,
                  on_trial: Optional[Callable[[TrialTask], None]] = None
                  ) -> Dict[str, object]:
    """Run every task of ``batch`` in this process; return the wire payload.

    ``on_trial`` is called before each task runs; the distributed worker
    hooks it to heartbeat its claim lease between trials (and to give the
    fault injector its between-trials site), so a long batch stays leased
    for as long as it is making progress.

    The payload is JSON-safe (it crosses pickle *and* the spool queue)::

        {"results": [{"spec_index": 0, "trial_index": 1, "result": {...}},
                     ...],
         "cache_stats": {"dut_cache_hits": 3, ...},  # deltas for this batch
         "corpus": {"points": [...], "entries": [...]}}  # only corpus-on

    For corpus-enabled tasks, one :class:`~repro.fuzzing.corpus.
    CorpusManager` is threaded through the batch: it starts from the state
    the backend injected into ``batch.corpus``, each trial merges it in
    before running and folds its discoveries back after, and the payload's
    ``"corpus"`` key carries only the *delta* accumulated by this batch
    (new points + newly admitted entries) so dispatchers can merge batches
    from many workers without double counting.

    Cache-stat *deltas* (not cumulative process counters) are reported so
    a dispatcher can sum them across batches and workers without double
    counting.  The snapshot is taken *before* the caches are re-bounded:
    re-bounding can spill LRU entries, and those evictions belong to the
    batch that requested the new bound (snapshotting after silently
    dropped them from every delta whenever ``--cache-entries`` shrank a
    worker's caches mid-grid).

    Trials of one batch share a DUT configuration, so beyond the run
    caches they also reuse **compiled traces**: identical programs
    regenerated across trials (seed replays, bug-sweep variants, duplicate
    mutants) compile once per worker and replay through the shared
    golden/DUT fast loop; ``compiled_trace_*`` deltas account for it.

    The whole batch runs with automatic garbage collection paused, so its
    trials never re-enable it between them.  A batch that ends normally
    then freezes (``gc.freeze()``) what survives it, just before handing
    the collector back, so later collections skip the process caches.
    """
    with collection_paused():
        before = process_cache_stats()
        configure_process_caches(batch.cache_entries)
        dut_cache = process_dut_cache()
        golden_fallback = process_golden_cache()
        batch_corpus = None
        if batch_uses_corpus(batch):
            from repro.fuzzing.corpus import CorpusManager

            batch_corpus = CorpusManager.from_payload(batch.corpus)
            batch_corpus.mark_base()
        results = []
        for task in batch.tasks:
            if on_trial is not None:
                on_trial(task)
            corpus_kwargs = {}
            if batch_corpus is not None and task_uses_corpus(task):
                corpus_kwargs = {"corpus_state": batch_corpus.to_payload(),
                                 "corpus_sink": batch_corpus.merge_payload}
            result = run_campaign(task.spec, task.trial_index,
                                  dut_cache=dut_cache,
                                  golden_fallback=golden_fallback,
                                  **corpus_kwargs)
            results.append({"spec_index": task.spec_index,
                            "trial_index": task.trial_index,
                            "result": result.to_dict()})
        after = process_cache_stats()
        payload = {"results": results,
                   "cache_stats": {name: after[name] - before[name]
                                   for name in after}}
        if batch_corpus is not None:
            payload["corpus"] = batch_corpus.delta_payload()
        # No collection first: trials make no cyclic garbage.  Skipped when
        # the batch raises, so its traceback's frames never become permanent.
        gc.freeze()
    return payload


# ----------------------------------------------------------------- wire format
def batch_to_wire(batch: TrialBatch) -> Dict[str, object]:
    """Serialize a batch for the spool queue (inverse of :func:`batch_from_wire`)."""
    wire = {
        "kind": "batch",
        "batch": batch.index,
        "cache_entries": batch.cache_entries,
        "tasks": [{"spec_index": task.spec_index,
                   "trial_index": task.trial_index,
                   "spec": task.spec.to_dict()} for task in batch.tasks],
    }
    if batch.corpus is not None:
        # Corpus payloads are already JSON-safe (point names + words, no
        # masks); omitted entirely for corpus-off batches so their wire
        # form is unchanged from pre-corpus builds.
        wire["corpus"] = batch.corpus
    return wire


def batch_from_wire(data: Dict[str, object]) -> TrialBatch:
    """Rebuild a batch a worker pulled off the spool queue."""
    if data.get("kind") != "batch":
        raise ValueError(f"not a batch payload: kind={data.get('kind')!r}")
    cache_entries = data.get("cache_entries")
    tasks = tuple(
        TrialTask(spec_index=int(task["spec_index"]),
                  trial_index=int(task["trial_index"]),
                  spec=CampaignSpec.from_dict(task["spec"]))
        for task in data["tasks"])
    return TrialBatch(index=int(data["batch"]), tasks=tasks,
                      cache_entries=(int(cache_entries)
                                     if cache_entries is not None else None),
                      corpus=data.get("corpus"))
