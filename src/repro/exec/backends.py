"""Pluggable trial-execution backends.

A backend consumes :class:`TrialTask` work units -- one (spec, trial)
cell of a campaign grid -- and yields ``(task, result_dict)`` pairs as
trials finish.  Results cross the backend boundary as
``FuzzCampaignResult.to_dict()`` payloads on *every* backend, so the
serial path exercises exactly the serialization the multi-process path
depends on, and the engine can journal a result without re-encoding it.

Task ordering, batching and result collection are hoisted into
:class:`ExecutionBackend` itself: :meth:`ExecutionBackend.run` plans
:class:`~repro.exec.batching.TrialBatch` groups (tasks sharing a DUT
configuration, so one cache warm-up serves the whole batch), hands them to
the subclass's :meth:`ExecutionBackend._run_batches`, accumulates the
per-batch cache-traffic deltas, and unpacks batch payloads back into
per-task results.  A concrete backend therefore only supplies a transport
for batches:

* :class:`SerialBackend` -- in-process, in-order; the determinism oracle
  and the debugging path (breakpoints work, tracebacks are local).
* :class:`ProcessPoolBackend` -- ``concurrent.futures`` pool with optional
  worker recycling (``max_tasks_per_child``), completion-order streaming.
* :class:`~repro.exec.distributed.DistributedBackend` -- spool-directory
  queue served by independently launched ``repro.cli worker`` processes
  (see ``docs/distributed.md``).
"""

from __future__ import annotations

import abc
import dataclasses
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import TYPE_CHECKING, Callable, Dict, Iterator, Optional, Sequence, Tuple

from repro.exec.batching import (
    DEFAULT_BATCH_SIZE,
    TrialBatch,
    TrialTask,
    batch_uses_corpus,
    execute_batch,
    plan_batches,
)

if TYPE_CHECKING:
    from repro.fuzzing.corpus import CorpusManager


class ExecutionBackend(abc.ABC):
    """Runs a batch of trial tasks, yielding serialized results as they finish.

    Attributes:
        batch_size: max tasks per :class:`TrialBatch` (``None`` = one batch
            per cache-locality group, however large).
        cache_entries: process-cache capacity applied inside workers before
            each batch (``None`` keeps the worker default); set by the
            engine's ``cache_entries`` knob.
        cache_stats: cache-traffic deltas summed over the batches of the
            most recent :meth:`run`, live while the run streams (the
            engine feeds these to the progress monitor).
        robustness_stats: self-healing counters of the most recent
            :meth:`run` (requeues, retries, dead-lettered batches) --
            populated by backends with failure recovery (currently the
            distributed one); empty for in-process backends.
        quarantined: descriptions of batches the most recent :meth:`run`
            gave up on (dead-lettered after their retry budget), each with
            the ``(spec_index, trial_index)`` cells it carried so the
            engine can report which trials are missing.
        corpus: the dispatcher-side :class:`~repro.fuzzing.corpus.
            CorpusManager`, or ``None`` for corpus-off grids.  The engine
            installs it (possibly pre-seeded from a checkpoint journal);
            the :meth:`run` template folds every batch's ``"corpus"``
            delta into it -- the **same merge path** for serial, pool and
            distributed execution -- and :meth:`_prepare_batch` injects
            its current state into corpus-enabled batches right before
            they ship.
        on_corpus_delta: optional callback invoked with each batch's raw
            corpus delta after it is merged (the engine hooks checkpoint
            journaling here).
        telemetry: optional :class:`~repro.telemetry.sink.TelemetryRecorder`
            installed by the engine (mirroring ``corpus``); backends with
            their own lifecycle events (the distributed one hands it to
            its :class:`~repro.exec.transport.WorkerSupervisor`) emit
            through it.  ``None`` -- the default -- costs nothing.
    """

    def __init__(self, batch_size: Optional[int] = DEFAULT_BATCH_SIZE,
                 cache_entries: Optional[int] = None) -> None:
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be >= 1 or None")
        if cache_entries is not None and cache_entries < 1:
            raise ValueError("cache_entries must be >= 1 or None")
        self.batch_size = batch_size
        self.cache_entries = cache_entries
        self.cache_stats: Dict[str, int] = {}
        self.robustness_stats: Dict[str, int] = {}
        self.quarantined: list = []
        self.corpus: Optional["CorpusManager"] = None
        self.on_corpus_delta: Optional[Callable[[Dict[str, object]], None]] = None
        self.telemetry = None

    def run(self, tasks: Sequence[TrialTask]
            ) -> Iterator[Tuple[TrialTask, Dict[str, object]]]:
        """Execute ``tasks``; yield ``(task, result_dict)`` per completed trial.

        Completion order is backend-defined; callers must not assume it
        matches submission order.  This template owns the shared
        plan/collect logic; subclasses implement :meth:`_run_batches`.
        """
        self.cache_stats = {}
        self.robustness_stats = {}
        self.quarantined = []
        # An empty grid still flows through _run_batches: backends with
        # shutdown side effects (the distributed STOP sentinel) must see
        # every run, including fully journal-restored ones.
        batches = plan_batches(tasks, batch_size=self.batch_size,
                               cache_entries=self.cache_entries)
        for batch, payload in self._run_batches(batches):
            for name, value in payload.get("cache_stats", {}).items():
                self.cache_stats[name] = self.cache_stats.get(name, 0) + value
            delta = payload.get("corpus")
            if delta is not None:
                self._merge_corpus_delta(delta)
            by_cell = {(task.spec_index, task.trial_index): task
                       for task in batch.tasks}
            for item in payload["results"]:
                task = by_cell[(item["spec_index"], item["trial_index"])]
                yield task, item["result"]

    @abc.abstractmethod
    def _run_batches(self, batches: Sequence[TrialBatch]
                     ) -> Iterator[Tuple[TrialBatch, Dict[str, object]]]:
        """Execute ``batches``; yield ``(batch, execute_batch payload)`` pairs."""

    # ------------------------------------------------------------- corpus state
    def _merge_corpus_delta(self, delta: Dict[str, object]) -> None:
        """Fold one batch's corpus delta into the dispatcher-side map.

        Creating the manager lazily keeps direct ``backend.run`` callers
        (no engine involved) working without setup; merging is idempotent,
        so a delta that also travelled over the distributed coverage
        channel folds in harmlessly a second time.
        """
        if self.corpus is None:
            from repro.fuzzing.corpus import CorpusManager

            self.corpus = CorpusManager()
        self.corpus.merge_payload(delta)
        if self.on_corpus_delta is not None:
            self.on_corpus_delta(delta)

    def _prepare_batch(self, batch: TrialBatch) -> TrialBatch:
        """Inject the freshest corpus state into a corpus-enabled batch.

        Called by subclasses at the last moment before a batch ships (pool
        submission, queue enqueue, serial execution), so work scheduled
        later starts from everything earlier batches discovered.  A no-op
        for corpus-off batches -- their ``TrialBatch`` is reused as-is and
        results stay bit-identical with pre-corpus builds.
        """
        if self.corpus is None or not batch_uses_corpus(batch):
            return batch
        return dataclasses.replace(batch, corpus=self.corpus.to_payload())

    def describe(self) -> str:
        """Human-readable backend label (shown by progress monitors)."""
        return type(self).__name__


class SerialBackend(ExecutionBackend):
    """In-process, submission-order execution.

    Shares the process-local DUT-run and golden-trace caches with any
    other serial grids run in this process, exactly as one pool worker
    would.
    """

    def _run_batches(self, batches: Sequence[TrialBatch]
                     ) -> Iterator[Tuple[TrialBatch, Dict[str, object]]]:
        for batch in batches:
            # Generator semantics give the natural feedback cadence: the
            # run() template folds the previous batch's corpus delta
            # before this next() resumes, so _prepare_batch always sees
            # the complete map accumulated so far.
            yield batch, execute_batch(self._prepare_batch(batch))

    def describe(self) -> str:
        return "serial"


class ProcessPoolBackend(ExecutionBackend):
    """Shards trial batches across a ``concurrent.futures`` process pool.

    Attributes:
        workers: pool size.
        max_tasks_per_child: recycle each worker after this many *batches*
            (bounds memory growth of per-process caches on huge grids);
            ``None`` keeps workers for the pool's lifetime.
        start_method: explicit multiprocessing start method.  By default
            ``"fork"`` is used where available (cheap startup), except that
            worker recycling requires ``"forkserver"``/``"spawn"`` --
            CPython forbids ``max_tasks_per_child`` with ``"fork"``.
    """

    def __init__(self, workers: int,
                 max_tasks_per_child: Optional[int] = None,
                 start_method: Optional[str] = None,
                 batch_size: Optional[int] = DEFAULT_BATCH_SIZE,
                 cache_entries: Optional[int] = None) -> None:
        super().__init__(batch_size=batch_size, cache_entries=cache_entries)
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_tasks_per_child is not None and max_tasks_per_child < 1:
            raise ValueError("max_tasks_per_child must be >= 1 or None")
        if max_tasks_per_child is not None and start_method == "fork":
            # CPython rejects this pairing when the pool is built; fail at
            # construction instead of mid-grid after side effects.
            raise ValueError("max_tasks_per_child is incompatible with the "
                             "'fork' start method")
        self.workers = workers
        self.max_tasks_per_child = max_tasks_per_child
        self.start_method = start_method or self._default_start_method()

    def _default_start_method(self) -> str:
        import multiprocessing

        available = multiprocessing.get_all_start_methods()
        if self.max_tasks_per_child is None and "fork" in available:
            return "fork"
        if "forkserver" in available:
            return "forkserver"
        return "spawn"

    def _run_batches(self, batches: Sequence[TrialBatch]
                     ) -> Iterator[Tuple[TrialBatch, Dict[str, object]]]:
        import multiprocessing

        if not batches:
            return  # don't spin up a pool for a fully restored grid
        context = multiprocessing.get_context(self.start_method)
        pool_kwargs = {"max_workers": self.workers, "mp_context": context}
        if self.max_tasks_per_child is not None:
            pool_kwargs["max_tasks_per_child"] = self.max_tasks_per_child
        pool = ProcessPoolExecutor(**pool_kwargs)
        try:
            # Windowed submission instead of submitting the whole grid up
            # front: corpus-enabled batches are stamped with the freshest
            # dispatcher map at submit time, so a batch submitted after
            # another completed starts from its discoveries.  The window
            # keeps every worker busy; for corpus-off grids the only
            # difference from bulk submission is submission timing, which
            # results are independent of by construction.
            queue = iter(batches)
            window = max(2 * self.workers, 2)
            pending: Dict[object, TrialBatch] = {}

            def top_up() -> None:
                while len(pending) < window:
                    try:
                        batch = next(queue)
                    except StopIteration:
                        return
                    pending[pool.submit(execute_batch,
                                        self._prepare_batch(batch))] = batch

            top_up()
            while pending:
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    batch = pending.pop(future)
                    yield batch, future.result()
                top_up()
        except BaseException:
            # Abort (consumer raised/abandoned the generator, or a trial
            # failed): drop everything still queued instead of letting
            # shutdown block until the whole grid has run to completion.
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        else:
            pool.shutdown(wait=True)

    def describe(self) -> str:
        recycle = (f", recycle every {self.max_tasks_per_child}"
                   if self.max_tasks_per_child else "")
        return f"process-pool({self.workers} workers, {self.start_method}{recycle})"
