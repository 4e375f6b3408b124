"""Distributed campaign execution over a spool-directory queue.

:class:`DistributedBackend` is the dispatcher half: it serializes trial
batches through the :mod:`~repro.exec.batching` wire format into a
:class:`~repro.exec.queue.SpoolQueue` and streams results back as workers
publish them.  :func:`run_worker` is the worker half, attached to the same
queue directory by ``repro.cli worker`` -- launched independently of the
dispatcher as separate invocations, containers or machines sharing a
filesystem.

Failure semantics (see ``docs/distributed.md`` and ``docs/robustness.md``):

* A worker that dies mid-batch leaves a claim file behind; once its lease
  expires the dispatcher (or an idle worker) requeues it and another
  worker re-executes the batch.  Trials are deterministic, so re-execution
  reproduces the lost results bit for bit.  Workers heartbeat their claim
  between trials, so a batch that legitimately outlives its lease is never
  falsely requeued (and never duplicated).  A worker whose heartbeat finds
  the claim gone -- the lease expired and the batch was requeued anyway --
  aborts the remainder of the batch and drops its result
  (:class:`~repro.exec.queue.LeaseLostError`) rather than duplicating the
  new owner's execution and racing its publish.
* Every failure consumes one unit of the task's retry budget
  (``max_attempts``); a batch that keeps failing -- crashing workers,
  corrupted results, poisoned specs -- is quarantined in ``deadletter/``
  and the grid completes without it, reporting the quarantined trials
  instead of hanging or raising mid-stream.
* A dispatcher that dies is covered one level up by the engine's
  checkpoint journal: re-running the grid restores journaled trials and
  enqueues only the missing ones.

Corpus mode adds a side band (see ``docs/corpus.md``): corpus-enabled
batches are stamped with the dispatcher's current global corpus state at
enqueue time, workers publish their per-batch corpus deltas on the
queue's ``coverage/`` channel as soon as a batch finishes, and the
dispatcher merges and re-broadcasts the global map each poll so *later*
batches -- on any worker -- start from everything the fleet has learned.
The channel is advisory: deltas also ride inside result payloads and
merging is idempotent, so a lost or duplicated channel file costs only
freshness, never correctness.
"""

from __future__ import annotations

import dataclasses
import os
import socket
import time
import traceback
from typing import Dict, Iterator, Optional, Sequence, Set, Tuple

from repro.exec import faults
from repro.exec.backends import ExecutionBackend
from repro.exec.batching import (
    DEFAULT_BATCH_SIZE,
    TrialBatch,
    batch_from_wire,
    batch_to_wire,
    execute_batch,
)
from repro.exec.queue import (
    DEFAULT_LEASE_TIMEOUT,
    DEFAULT_MAX_ATTEMPTS,
    ATTEMPTS_KEY,
    REASON_ATTEMPTS_EXHAUSTED,
    REASON_NO_LIVE_WORKERS,
    LeaseLostError,
    SpoolQueue,
)

#: orphan results older than this are swept at dispatcher startup; any
#: dispatcher still alive polls its results orders of magnitude faster.
STALE_RESULT_SECONDS = 86400.0

#: consecutive reconcile passes a task must be missing from every queue
#: directory before the dispatcher re-enqueues it -- one pass can race a
#: requeue's scratch-rename window, two cannot.
LOST_TASK_STRIKES = 2


class DistributedBackend(ExecutionBackend):
    """Dispatches trial batches to external workers through a spool queue.

    Attributes:
        queue_dir: spool directory shared with the workers.
        poll_interval: seconds between result-directory scans.
        lease_timeout: seconds before an in-flight batch claimed by a
            silent (non-heartbeating) worker is requeued for another
            worker.
        max_attempts: execution budget per batch; a batch failing this
            many times (worker deaths, corrupted results, raised errors)
            is quarantined in ``deadletter/`` and its trials are reported
            as lost instead of requeued forever.
        stop_workers_on_exit: write the ``STOP`` sentinel when the grid
            finishes (or aborts), telling workers to drain and exit.
        max_wait_seconds: abort with ``TimeoutError`` if the grid has not
            finished within this budget (``None`` waits forever) -- a
            guard against waiting on a queue no worker is serving.
        supervisor: optional :class:`~repro.exec.transport.
            WorkerSupervisor` owning the worker fleet for this queue.
            The dispatcher starts it before enqueueing, polls it every
            result-scan pass (crashed workers restart under its
            crash-loop budget), and drains it after the STOP sentinel --
            which is always written when a supervisor is present, since
            nobody else will stop the workers it spawned.  Its final
            counters land in ``transport_stats`` for the engine's
            ``last_run_report["transport"]`` section.
        transport_stats: supervision counters of the most recent run
            (``None`` for unsupervised runs).
    """

    def __init__(
        self,
        queue_dir: str,
        poll_interval: float = 0.1,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        stop_workers_on_exit: bool = False,
        max_wait_seconds: Optional[float] = None,
        batch_size: Optional[int] = DEFAULT_BATCH_SIZE,
        cache_entries: Optional[int] = None,
        supervisor=None,
    ) -> None:
        super().__init__(batch_size=batch_size, cache_entries=cache_entries)
        if poll_interval <= 0:
            raise ValueError("poll_interval must be > 0")
        if lease_timeout <= 0:
            raise ValueError("lease_timeout must be > 0")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.queue_dir = str(queue_dir)
        self.poll_interval = poll_interval
        self.lease_timeout = lease_timeout
        self.max_attempts = max_attempts
        self.stop_workers_on_exit = stop_workers_on_exit
        self.max_wait_seconds = max_wait_seconds
        self.supervisor = supervisor
        self.transport_stats = None

    def _run_batches(
        self,
        batches: Sequence[TrialBatch],
    ) -> Iterator[Tuple[TrialBatch, Dict[str, object]]]:
        queue = SpoolQueue(self.queue_dir).ensure()
        # A leftover sentinel from a previous --stop-workers run would make
        # freshly attached workers exit on their first poll; this grid
        # wants the queue live again.
        queue.clear_stop()
        queue.sweep_stale_results(STALE_RESULT_SECONDS)
        run_id = os.urandom(4).hex()  # results namespace: one queue, many grids
        pending: Dict[str, TrialBatch] = {}
        attempts: Dict[str, int] = {}
        missing_strikes: Dict[str, int] = {}
        stats = self.robustness_stats
        for name in ("requeued", "retried", "deadlettered"):
            stats.setdefault(name, 0)
        last_broadcast = -1
        supervisor = self.supervisor
        self.transport_stats = None
        if supervisor is not None:
            supervisor.telemetry = self.telemetry
            supervisor.start()
        try:
            for batch in batches:
                task_id = f"{run_id}-{batch.index:06d}"
                queue.enqueue(
                    task_id,
                    batch_to_wire(self._prepare_batch(batch)),
                    attempts=0,
                    max_attempts=self.max_attempts,
                )
                pending[task_id] = batch
            deadline = None
            if self.max_wait_seconds is not None:
                deadline = time.monotonic() + self.max_wait_seconds
            while pending:
                last_broadcast = self._sync_coverage(queue, last_broadcast)
                if supervisor is not None:
                    supervisor.poll()
                # One directory scan per pass, not one open() per batch.
                finished = sorted(set(queue.result_ids()) & set(pending))
                for task_id in finished:
                    payload = queue.collect(task_id)
                    if payload is None:
                        continue  # vanished between scan and read
                    queue.discard_result(task_id)
                    if "error" in payload:
                        self._handle_failure(queue, task_id, payload, pending, attempts, stats)
                        continue
                    yield pending.pop(task_id), payload
                # Batches quarantined on the worker side (budget exhausted
                # by lease-expiry requeues) complete the grid as losses.
                for task_id in queue.deadletter_ids():
                    if task_id in pending:
                        self._note_quarantine(
                            task_id, pending.pop(task_id), queue.read_deadletter(task_id), stats
                        )
                if pending and not finished:
                    requeued = queue.requeue_stale(self.lease_timeout)
                    stats["requeued"] += sum(1 for task_id in requeued if task_id in pending)
                    self._reconcile_lost(queue, pending, attempts, missing_strikes, stats)
                    if supervisor is not None and supervisor.all_degraded:
                        # Every supervised host is out of crash budget:
                        # nobody will ever claim the remaining batches.
                        # Quarantine whatever is unclaimed so the grid
                        # completes (degraded) instead of hanging; claimed
                        # batches cycle back through requeue_stale above
                        # once their dead owner's lease expires.
                        self._quarantine_unserviceable(queue, pending, attempts, stats)
                    if deadline is not None and time.monotonic() > deadline:
                        raise TimeoutError(
                            f"distributed grid stalled: {len(pending)} batches "
                            f"outstanding after {self.max_wait_seconds:.0f}s "
                            f"(is a worker attached to {self.queue_dir}?)"
                        )
                    time.sleep(self.poll_interval)
        finally:
            # Withdraw anything not yet claimed (abort path), sweep results
            # of this run that will never be read (aborted batches, late
            # duplicates from lease-expired workers), then optionally tell
            # the workers to drain and exit.
            for task_id in pending:
                # A False return means the batch was already claimed; the
                # worker's eventual result goes unread and is swept by a
                # later dispatcher's stale-results pass.
                queue.discard_task(task_id)
            for task_id in queue.result_ids():
                if task_id.startswith(run_id):
                    queue.discard_result(task_id)
            # Publish the final merged map *before* the STOP sentinel, so
            # draining workers snapshot a map identical to the
            # dispatcher's (the convergence invariant of docs/corpus.md).
            self._sync_coverage(queue, -1)
            if self.stop_workers_on_exit or supervisor is not None:
                queue.request_stop()
            if supervisor is not None:
                supervisor.drain()
                self.transport_stats = supervisor.stats()

    def _sync_coverage(self, queue: SpoolQueue, last_broadcast: int) -> int:
        """Drain worker corpus deltas; re-broadcast the map when it changed.

        Channel deltas are merged straight into the dispatcher manager
        without the journaling callback: the same delta arrives again
        inside the batch's result payload (the journaled, durable path),
        and merging is idempotent.  Returns the version of the newest
        broadcast so unchanged maps are not republished every poll.
        """
        if self.corpus is None:
            return last_broadcast
        for delta in queue.take_coverage_deltas():
            self.corpus.merge_payload(delta)
        if self.corpus.version != last_broadcast:
            last_broadcast = self.corpus.version
            queue.publish_coverage_global({
                "version": last_broadcast,
                "state": self.corpus.to_payload(),
            })
        return last_broadcast

    # ------------------------------------------------------------- self-heal
    def _handle_failure(
        self,
        queue: SpoolQueue,
        task_id: str,
        payload: Dict[str, object],
        pending: Dict[str, TrialBatch],
        attempts: Dict[str, int],
        stats: Dict[str, int],
    ) -> None:
        """One failed execution observed: retry the batch or quarantine it.

        The attempt count merges the dispatcher's own ledger with the
        count echoed through the worker's payload (requeues on the worker
        side bump the task file, which the dispatcher never reads), so
        neither side can under-count a crash loop.
        """
        echoed = 0
        try:
            echoed = int(payload.get(ATTEMPTS_KEY, 0))  # type: ignore[arg-type]
        except (TypeError, ValueError):
            pass
        count = max(attempts.get(task_id, 0), echoed) + 1
        attempts[task_id] = count
        batch = pending[task_id]
        error = str(payload.get("error", "unknown failure"))
        if count >= self.max_attempts:
            record = queue.quarantine(
                task_id,
                payload=batch_to_wire(batch),
                attempts=count,
                error=error,
                reason=REASON_ATTEMPTS_EXHAUSTED,
            )
            self._note_quarantine(task_id, pending.pop(task_id), record, stats)
        else:
            stats["retried"] += 1
            queue.enqueue(
                task_id,
                batch_to_wire(batch),
                attempts=count,
                max_attempts=self.max_attempts,
            )

    def _quarantine_unserviceable(
        self,
        queue: SpoolQueue,
        pending: Dict[str, TrialBatch],
        attempts: Dict[str, int],
        stats: Dict[str, int],
    ) -> None:
        """All supervised hosts degraded: give up on unclaimed batches.

        Withdrawing a batch can race an unsupervised walk-up worker's
        claim; ``discard_task`` only succeeds on batches still sitting in
        ``tasks/``, so anything actually being executed is left alone and
        collected (or requeued) by the normal paths.
        """
        for task_id in sorted(pending):
            if not queue.discard_task(task_id):
                continue
            record = queue.quarantine(
                task_id,
                payload=batch_to_wire(pending[task_id]),
                attempts=attempts.get(task_id, 0),
                error="no live workers: all supervised hosts degraded",
                reason=REASON_NO_LIVE_WORKERS,
            )
            self._note_quarantine(task_id, pending.pop(task_id), record, stats)

    def _note_quarantine(
        self,
        task_id: str,
        batch: TrialBatch,
        record: Optional[Dict[str, object]],
        stats: Dict[str, int],
    ) -> None:
        stats["deadlettered"] += 1
        self.quarantined.append(
            {
                "task_id": task_id,
                "error": (record or {}).get("error", "unknown failure"),
                "reason": (record or {}).get("reason"),
                "attempts": (record or {}).get("attempts"),
                "tasks": [(task.spec_index, task.trial_index) for task in batch.tasks],
            }
        )

    def _reconcile_lost(
        self,
        queue: SpoolQueue,
        pending: Dict[str, TrialBatch],
        attempts: Dict[str, int],
        missing_strikes: Dict[str, int],
        stats: Dict[str, int],
    ) -> None:
        """Re-enqueue tasks that vanished from every queue directory.

        A requeue that crashed between taking ownership of a claim and
        republishing it leaves the task nowhere; without this pass the
        dispatcher would wait on it forever.  A task must be missing for
        :data:`LOST_TASK_STRIKES` consecutive passes before it is
        resubmitted -- one pass can catch a healthy requeue inside its
        scratch-rename window.  A spurious resubmission is harmless
        anyway: task files are keyed by id, so duplicates collapse.
        """
        present: Set[str] = set(queue.task_ids())
        present.update(queue.claimed_ids())
        present.update(queue.result_ids())
        present.update(queue.deadletter_ids())
        for task_id in list(pending):
            if task_id in present:
                missing_strikes.pop(task_id, None)
                continue
            strikes = missing_strikes.get(task_id, 0) + 1
            if strikes < LOST_TASK_STRIKES:
                missing_strikes[task_id] = strikes
                continue
            missing_strikes.pop(task_id, None)
            count = attempts.get(task_id, 0) + 1
            attempts[task_id] = count
            batch = pending[task_id]
            if count >= self.max_attempts:
                record = queue.quarantine(
                    task_id,
                    payload=batch_to_wire(batch),
                    attempts=count,
                    error="task repeatedly lost in flight (crashed requeue?)",
                    reason=REASON_ATTEMPTS_EXHAUSTED,
                )
                self._note_quarantine(task_id, pending.pop(task_id), record, stats)
            else:
                stats["requeued"] += 1
                queue.enqueue(
                    task_id,
                    batch_to_wire(batch),
                    attempts=count,
                    max_attempts=self.max_attempts,
                )

    def describe(self) -> str:
        return f"distributed(queue={self.queue_dir})"


def run_worker(
    queue_dir: str,
    worker_id: Optional[str] = None,
    poll_interval: float = 0.2,
    lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
    max_tasks: Optional[int] = None,
    max_attempts: Optional[int] = None,
    max_poll_interval: Optional[float] = None,
    log=None,
) -> int:
    """Serve ``queue_dir`` until the stop sentinel appears; return batches done.

    The worker claims one batch at a time, executes it with the shared
    process caches warm across batches, publishes the result and moves on.
    Between the trials of a batch it heartbeats its claim, so a batch that
    takes longer than the lease is never falsely requeued while the worker
    is alive and making progress.  While idle it also rescues batches
    whose claim lease has expired (another worker died mid-batch),
    dead-lettering any batch whose retry budget is spent, and backs off
    its polling exponentially (jittered, up to ``max_poll_interval``,
    default ``16 * poll_interval``) so an idle fleet does not hammer the
    shared filesystem in lockstep.

    A batch that raises publishes an error payload for the dispatcher and
    the worker keeps serving -- one poisoned spec must not take the whole
    fleet down.  Only a failure of the queue itself (publishing
    impossible even after retries) stops the worker, by letting the
    ``OSError`` propagate; ``repro.cli worker`` turns that into a nonzero
    exit status so supervisors notice.

    ``max_tasks`` bounds how many batches this worker executes (worker
    recycling for long-lived fleets); ``max_attempts`` is the retry-budget
    fallback applied when rescuing tasks enqueued without one; ``log``
    receives one progress line per event when given.
    """
    if max_tasks is not None and max_tasks < 1:
        raise ValueError("max_tasks must be >= 1 or None")
    if poll_interval <= 0:
        raise ValueError("poll_interval must be > 0")
    if lease_timeout <= 0:
        # A zero lease would make this worker's idle polls yank every
        # other worker's in-flight claim straight back into tasks/.
        raise ValueError("lease_timeout must be > 0")
    if max_attempts is not None and max_attempts < 1:
        raise ValueError("max_attempts must be >= 1 or None")
    queue = SpoolQueue(queue_dir).ensure()
    name = worker_id or f"{socket.gethostname()}-{os.getpid()}"
    emit = log or (lambda line: None)
    emit(f"worker {name}: serving {queue_dir}")
    idle = faults.Backoff(
        base=poll_interval,
        cap=max_poll_interval,
        seed=faults.stable_seed(name),
    )
    executed = 0
    # Corpus mode: the worker's own running view of the global map, fed by
    # dispatcher broadcasts and its own batches.  Created lazily on the
    # first corpus-enabled batch; stays None (zero overhead, zero channel
    # traffic) for corpus-off grids.
    worker_corpus = None
    corpus_seq = 0
    last_global_version = -1

    def merge_global_broadcast():
        nonlocal last_global_version
        broadcast = queue.read_coverage_global()
        if not broadcast:
            return
        try:
            version = int(broadcast.get("version", 0))
        except (TypeError, ValueError):
            return
        if version > last_global_version:
            last_global_version = version
            worker_corpus.merge_payload(broadcast.get("state"))

    while max_tasks is None or executed < max_tasks:
        if faults.fire(faults.SITE_WORKER_POLL, worker=name):
            # ``defer``: stay off the queue until the faults this worker
            # waits for have fired elsewhere.
            if queue.stop_requested():
                break
            time.sleep(idle.next())
            continue
        claim = queue.claim(name)
        if claim is None:
            if queue.stop_requested():
                break
            requeued = queue.requeue_stale(lease_timeout, max_attempts=max_attempts)
            if requeued:
                idle.reset()  # work just became claimable; poll eagerly
            time.sleep(idle.next())
            continue
        idle.reset()
        for rule in faults.fire(faults.SITE_WORKER_BATCH, task_id=claim.task_id, ordinal=executed):
            faults.perform(rule)

        def on_trial(task, claim=claim):
            for rule in faults.fire(faults.SITE_WORKER_TRIAL, task_id=claim.task_id):
                faults.perform(rule)
            if not claim.heartbeat():
                # The claim file is gone: the batch was requeued to (or
                # finished by) another worker.  Abort the rest of the
                # batch -- the new owner re-executes it from scratch.
                raise LeaseLostError(
                    f"lease on batch {claim.task_id} lost mid-batch")

        try:
            batch = batch_from_wire(claim.payload)
            if batch.corpus is not None:
                # Corpus-enabled batch: start it from everything this
                # worker knows -- the dispatcher state stamped into the
                # batch, the latest broadcast, and its own past batches.
                if worker_corpus is None:
                    from repro.fuzzing.corpus import CorpusManager

                    worker_corpus = CorpusManager()
                merge_global_broadcast()
                worker_corpus.merge_payload(batch.corpus)
                batch = dataclasses.replace(
                    batch, corpus=worker_corpus.to_payload())
            outcome = execute_batch(batch, on_trial=on_trial)
        except LeaseLostError:
            # Ownership moved mid-batch; publishing a result (or an error
            # payload) here would race the new owner and double-feed the
            # corpus side band.  Drop everything this execution produced.
            emit(f"worker {name}: batch {claim.task_id} lease lost; "
                 "dropping result")
        except Exception:
            error = {
                "error": traceback.format_exc(),
                "worker": name,
                ATTEMPTS_KEY: claim.attempts,
            }
            queue.complete(claim, error)
            emit(f"worker {name}: batch {claim.task_id} failed")
        else:
            delta = outcome.get("corpus")
            if delta is not None and worker_corpus is not None:
                worker_corpus.merge_payload(delta)
                # Publish on the side band *before* releasing the result:
                # the dispatcher can fold the delta into batches it
                # enqueues next without waiting for the result scan.
                try:
                    queue.publish_coverage_delta(name, corpus_seq, delta)
                    corpus_seq += 1
                except OSError:
                    pass  # advisory channel; the delta rides the result
            outcome["worker"] = name
            outcome[ATTEMPTS_KEY] = claim.attempts
            queue.complete(claim, outcome)
            emit(f"worker {name}: batch {claim.task_id} done ({len(batch.tasks)} trials)")
        executed += 1
    if worker_corpus is not None:
        # Parting snapshot: fold the dispatcher's final broadcast, then
        # publish this worker's view of the global map.  After a clean
        # drain it is bit-identical with the dispatcher's (test-enforced).
        merge_global_broadcast()
        try:
            queue.publish_coverage_snapshot(name, worker_corpus.to_payload())
        except OSError:
            pass
    emit(f"worker {name}: exiting after {executed} batches")
    return executed


# Names re-exported for callers configuring the self-healing knobs.
__all__ = [
    "DEFAULT_MAX_ATTEMPTS",
    "DistributedBackend",
    "LOST_TASK_STRIKES",
    "STALE_RESULT_SECONDS",
    "run_worker",
]
