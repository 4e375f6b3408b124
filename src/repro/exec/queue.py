"""File-based (spool-directory) work queue for distributed campaign grids.

The queue is a directory on a filesystem shared by one dispatcher and any
number of workers -- separate invocations, containers or machines::

    <root>/
        tasks/      pending batch files     <batch>.json
        claimed/    in-flight batch files   <batch>.json.<worker>
        results/    finished batch payloads <batch>.json
        deadletter/ quarantined batches     <batch>.json
        coverage/   corpus/coverage exchange (see below)
        STOP        sentinel: workers drain remaining tasks, then exit

The ``coverage/`` channel is the corpus-mode side band (``docs/corpus.md``):
workers publish per-batch corpus deltas as ``delta.<worker>.<seq>.json``,
the dispatcher drains them, merges, and re-broadcasts the merged global
map as a versioned ``GLOBAL.json``; each worker's parting snapshot of the
map lands in ``final.<worker>.json``.  Like every other part of the queue,
the channel is built on atomic renames and tolerates deltas arriving
twice, late, or not at all -- corpus merging is idempotent and results
never depend on it.

Every operation is built from two primitives that are atomic on POSIX
filesystems: ``rename`` within a filesystem (claiming, requeueing and
publishing results) and write-to-temp-then-rename (so a reader never sees
a half-written JSON file).  Claiming is race-free by construction: two
workers renaming the same task file can only have one winner; the loser
gets ``FileNotFoundError`` and moves on.

Crash recovery: a claimed file whose mtime is older than the lease timeout
belongs to a dead (or wedged) worker; :meth:`SpoolQueue.requeue_stale`
returns it to ``tasks/`` so a live worker picks it up again.  Two
refinements keep that loop honest for long-lived services:

* **Heartbeats** -- a worker calls :meth:`ClaimedTask.heartbeat` between
  trials, touching the claim file's mtime, so a batch that legitimately
  outlives its lease is never falsely requeued (and hence never
  duplicated).  A failing heartbeat means the lease was lost anyway --
  the claim was already requeued to another worker -- and the holder
  aborts the remainder of the batch and drops its result
  (:class:`LeaseLostError`) instead of racing the new owner with a
  duplicate execution.
* **Retry budgets** -- every task payload carries an ``attempts`` counter
  (bumped on each requeue) and an optional ``max_attempts`` budget; a
  batch that keeps crashing its workers is moved to ``deadletter/`` with
  its failure context instead of being requeued forever.

Transient filesystem errors on publish are retried under jittered
exponential backoff (:class:`~repro.exec.faults.Backoff`); all directory
scans tolerate files disappearing mid-scan, because with many workers and
a dispatcher racing over one directory, they do.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.exec import faults

#: default seconds after which a claimed task is considered abandoned.
DEFAULT_LEASE_TIMEOUT = 300.0

#: default execution budget per task: a batch whose worker dies (or whose
#: result never survives publishing) this many times is quarantined.
DEFAULT_MAX_ATTEMPTS = 3

#: quarantine reason codes, recorded as ``reason`` next to the prose
#: ``error`` of a deadletter record: the retry budget ran out (failed
#: executions, lease expiries, lost-task resubmissions), every supervised
#: host degraded, or the task payload could not be read back.
REASON_ATTEMPTS_EXHAUSTED = "attempts_exhausted"
REASON_NO_LIVE_WORKERS = "no_live_workers"
REASON_UNREADABLE_CLAIM = "unreadable_claim"

#: attempts to publish a file through transient ``OSError``s before the
#: error is allowed to propagate to the caller.
PUBLISH_RETRIES = 4

_TASK_SUFFIX = ".json"

#: queue-envelope keys the dispatcher folds into task payloads; workers
#: echo ``attempts`` back so failure payloads carry their retry history.
ATTEMPTS_KEY = "attempts"
MAX_ATTEMPTS_KEY = "max_attempts"


class LeaseLostError(RuntimeError):
    """A worker's claim lease vanished mid-batch.

    Raised (by the worker's between-trials hook) when
    :meth:`ClaimedTask.heartbeat` returns ``False``: the claim file is
    gone, so the lease expired and the task was requeued to -- or already
    completed by -- another worker.  The holder must abort the rest of
    the batch and drop its result; the new owner republishes the same
    deterministic payload, so finishing here would only duplicate work
    and race the owner's publish.
    """


@dataclass(frozen=True)
class ClaimedTask:
    """A task this worker has exclusive (lease-based) ownership of."""

    task_id: str
    path: str
    payload: Dict[str, object]

    @property
    def attempts(self) -> int:
        """How many times this task has been handed to a worker before."""
        try:
            return int(self.payload.get(ATTEMPTS_KEY, 0))  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return 0

    def heartbeat(self) -> bool:
        """Renew the lease by touching the claim file's mtime.

        Returns ``False`` when the claim file is gone -- the lease expired
        and the task was requeued (or completed) under us.  The holder
        must then abort the remainder of the batch and discard its partial
        work (see :class:`LeaseLostError`): ownership has moved, and the
        new owner will re-execute and publish the same deterministic
        payload.
        """
        try:
            os.utime(self.path, None)
        except OSError:
            return False
        return True


class SpoolQueue:
    """One campaign work queue rooted at a spool directory."""

    def __init__(self, root: str) -> None:
        self.root = str(root)
        self.tasks_dir = os.path.join(self.root, "tasks")
        self.claimed_dir = os.path.join(self.root, "claimed")
        self.results_dir = os.path.join(self.root, "results")
        self.deadletter_dir = os.path.join(self.root, "deadletter")
        self.coverage_dir = os.path.join(self.root, "coverage")
        self.stop_path = os.path.join(self.root, "STOP")
        # One long-lived backoff per queue instance, owned by the publish
        # site alone: consecutive failing publishes during one filesystem
        # outage keep escalating across calls, and the first success
        # resets the schedule so the *next* outage starts from ``base``
        # again instead of an inflated leftover delay (regression-tested
        # in tests/exec/test_queue.py).
        self._publish_backoff = faults.Backoff(
            base=0.05, cap=1.0, seed=faults.stable_seed(self.root))

    def ensure(self) -> "SpoolQueue":
        """Create the queue layout (dispatcher and workers both call it)."""
        for directory in (self.tasks_dir, self.claimed_dir, self.results_dir,
                          self.deadletter_dir, self.coverage_dir):
            os.makedirs(directory, exist_ok=True)
        return self

    # ------------------------------------------------------------- dispatcher
    def enqueue(
        self,
        task_id: str,
        payload: Dict[str, object],
        attempts: int = 0,
        max_attempts: Optional[int] = None,
    ) -> None:
        """Publish one pending task file (atomically, via temp + rename).

        ``attempts``/``max_attempts`` form the task's retry envelope: the
        dispatcher sets the budget once at submission, requeues bump the
        counter, and :meth:`requeue_stale` quarantines the task when the
        counter reaches the budget.
        """
        envelope = dict(payload)
        envelope[ATTEMPTS_KEY] = int(attempts)
        if max_attempts is not None:
            envelope[MAX_ATTEMPTS_KEY] = int(max_attempts)
        path = os.path.join(self.tasks_dir, task_id + _TASK_SUFFIX)
        self._publish(path, envelope)

    def collect(self, task_id: str) -> Optional[Dict[str, object]]:
        """Read the result of ``task_id`` if a worker has published it.

        A result file that exists but does not parse (torn or corrupted on
        a non-atomic filesystem) comes back as an error payload rather
        than an exception, so the dispatcher's failure path -- retry or
        quarantine -- handles it like any other failed execution.
        """
        path = os.path.join(self.results_dir, task_id + _TASK_SUFFIX)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError) as exc:
            return {"error": f"corrupt result payload for {task_id}: {exc}", "corrupt": True}
        if not isinstance(payload, dict):
            return {"error": f"malformed result payload for {task_id}", "corrupt": True}
        return payload

    def requeue_stale(
        self, lease_timeout: float = DEFAULT_LEASE_TIMEOUT, max_attempts: Optional[int] = None
    ) -> List[str]:
        """Return abandoned claims (older than ``lease_timeout``) to ``tasks/``.

        Each requeue bumps the task's ``attempts`` counter; a task whose
        counter reaches its budget (the payload's ``max_attempts``, or the
        ``max_attempts`` argument for payloads without one) is moved to
        ``deadletter/`` instead -- a batch that reliably kills its worker
        must not circulate forever.  Ownership of one requeue is taken
        with a single atomic rename to a hidden scratch name, so
        concurrent sweepers (dispatcher plus idle workers) never process
        the same claim twice.  Files disappearing mid-scan are someone
        else's progress, not an error.
        """
        requeued = []
        now = time.time()
        for name in self._listdir(self.claimed_dir):
            claimed_path = os.path.join(self.claimed_dir, name)
            try:
                age = now - os.path.getmtime(claimed_path)
            except OSError:
                continue  # completed or re-claimed under us
            if age < lease_timeout:
                continue
            task_id = name.split(_TASK_SUFFIX)[0]
            scratch = os.path.join(self.claimed_dir, f".requeue.{name}.{self._unique()}")
            try:
                os.rename(claimed_path, scratch)
            except OSError:
                continue  # another sweeper owns this requeue
            try:
                with open(scratch, "r", encoding="utf-8") as handle:
                    payload = json.load(handle)
                if not isinstance(payload, dict):
                    raise ValueError("task payload is not an object")
            except (OSError, ValueError, json.JSONDecodeError) as exc:
                # An unreadable task file would crash every worker that
                # claims it; quarantine immediately, keeping the raw claim
                # name for forensics.
                self.quarantine(
                    task_id,
                    payload={"claim": name},
                    attempts=None,
                    error=f"unreadable claim payload: {exc}",
                    reason=REASON_UNREADABLE_CLAIM,
                )
                self._unlink_quiet(scratch)
                continue
            attempts = 0
            try:
                attempts = int(payload.get(ATTEMPTS_KEY, 0))
            except (TypeError, ValueError):
                pass
            attempts += 1
            budget = payload.get(MAX_ATTEMPTS_KEY, max_attempts)
            if budget is not None and attempts >= int(budget):
                message = (
                    f"lease expired on attempt {attempts} of {budget} "
                    "(worker died or wedged repeatedly)"
                )
                self.quarantine(task_id, payload=payload, attempts=attempts,
                                error=message, reason=REASON_ATTEMPTS_EXHAUSTED)
                self._unlink_quiet(scratch)
                continue
            payload[ATTEMPTS_KEY] = attempts
            target = os.path.join(self.tasks_dir, task_id + _TASK_SUFFIX)
            self._publish(target, payload)
            self._unlink_quiet(scratch)
            requeued.append(task_id)
        return requeued

    def discard_task(self, task_id: str) -> bool:
        """Withdraw a pending task (abort path); False if already claimed."""
        try:
            os.unlink(os.path.join(self.tasks_dir, task_id + _TASK_SUFFIX))
        except OSError:
            return False
        return True

    def discard_result(self, task_id: str) -> bool:
        """Remove a collected (or never-to-be-read) result file."""
        try:
            os.unlink(os.path.join(self.results_dir, task_id + _TASK_SUFFIX))
        except OSError:
            return False
        return True

    def sweep_stale_results(self, older_than: float) -> List[str]:
        """Remove orphan results older than ``older_than`` seconds.

        Results are namespaced per dispatcher run and normally deleted the
        moment they are collected (plus a same-run sweep on exit), so the
        only files this can touch are leftovers of dispatchers that died
        long ago -- any live dispatcher polls its results far faster than
        the horizon used here.  Hidden scratch files of requeues that died
        mid-flight are swept on the same horizon.
        """
        removed = []
        now = time.time()
        for name in self._listdir(self.results_dir):
            path = os.path.join(self.results_dir, name)
            try:
                if now - os.path.getmtime(path) < older_than:
                    continue
                os.unlink(path)
            except OSError:
                continue
            removed.append(name.split(_TASK_SUFFIX)[0])
        for directory in (self.claimed_dir, self.tasks_dir, self.results_dir):
            try:
                hidden = os.listdir(directory)
            except OSError:
                continue
            for name in hidden:
                if not name.startswith("."):
                    continue
                path = os.path.join(directory, name)
                try:
                    if now - os.path.getmtime(path) >= older_than:
                        os.unlink(path)
                except OSError:
                    continue
        return removed

    def request_stop(self) -> None:
        """Write the sentinel: workers finish the remaining tasks and exit."""
        self._publish(self.stop_path, {"stop": True})

    def clear_stop(self) -> None:
        """Remove the sentinel so re-attached workers keep serving the queue."""
        try:
            os.unlink(self.stop_path)
        except FileNotFoundError:
            pass

    # ------------------------------------------------------------- deadletter
    def quarantine(
        self, task_id: str, payload: Dict[str, object], attempts: Optional[int], error: str,
        reason: Optional[str] = None,
    ) -> Dict[str, object]:
        """Move a task out of circulation into ``deadletter/``.

        The record keeps everything needed to diagnose (and manually
        re-enqueue) the batch: the task payload, how many executions were
        attempted, the last error observed and its ``reason`` code (one
        of the ``REASON_*`` constants).  Atomic write keyed by task id, so
        concurrent quarantine attempts collapse to one file.
        """
        record: Dict[str, object] = {
            "task_id": task_id,
            "attempts": attempts,
            "error": error,
            "reason": reason,
            "payload": payload,
            "quarantined_at": time.time(),
        }
        path = os.path.join(self.deadletter_dir, task_id + _TASK_SUFFIX)
        self._publish(path, record)
        return record

    def deadletter_ids(self) -> List[str]:
        """Task ids currently quarantined (one directory scan)."""
        return [name.split(_TASK_SUFFIX)[0] for name in self._listdir(self.deadletter_dir)]

    def read_deadletter(self, task_id: str) -> Optional[Dict[str, object]]:
        """The quarantine record of ``task_id`` (or ``None``)."""
        path = os.path.join(self.deadletter_dir, task_id + _TASK_SUFFIX)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None

    def discard_deadletter(self, task_id: str) -> bool:
        """Drop a quarantine record (after the dispatcher reported it)."""
        try:
            os.unlink(os.path.join(self.deadletter_dir, task_id + _TASK_SUFFIX))
        except OSError:
            return False
        return True

    # ------------------------------------------------------- coverage channel
    def publish_coverage_delta(self, worker_id: str, seq: int,
                               payload: Dict[str, object]) -> None:
        """Publish one worker's corpus delta (atomic, per-worker sequenced).

        ``payload`` is a :meth:`~repro.fuzzing.corpus.CorpusManager.
        delta_payload` dict -- new coverage points plus newly admitted
        entries.  The ``(worker_id, seq)`` key keeps concurrent publishes
        from distinct workers apart; the dispatcher consumes files in name
        order, but merge idempotency means ordering is a nicety, not a
        correctness requirement.
        """
        name = f"delta.{worker_id}.{int(seq):08d}{_TASK_SUFFIX}"
        self._publish(os.path.join(self.coverage_dir, name), payload)

    def take_coverage_deltas(self) -> List[Dict[str, object]]:
        """Drain pending worker deltas (dispatcher side), oldest first.

        Each delta file is read then removed; files disappearing mid-scan
        or torn beyond parsing are skipped -- a lost delta costs only
        freshness (the same state rides in the batch's result payload, so
        the dispatcher map converges regardless).
        """
        deltas: List[Dict[str, object]] = []
        for name in sorted(self._listdir(self.coverage_dir)):
            if not name.startswith("delta."):
                continue
            path = os.path.join(self.coverage_dir, name)
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    payload = json.load(handle)
            except (OSError, json.JSONDecodeError):
                self._unlink_quiet(path)
                continue
            self._unlink_quiet(path)
            if isinstance(payload, dict):
                deltas.append(payload)
        return deltas

    def publish_coverage_global(self, payload: Dict[str, object]) -> None:
        """Broadcast the merged global corpus state (``coverage/GLOBAL.json``).

        The dispatcher wraps the state as ``{"version": n, "state":
        <to_payload dict>}``; the version lets workers (and re-broadcast
        checks) skip merges of a map they have already seen.  Atomic
        replace: readers always see a complete broadcast.
        """
        self._publish(os.path.join(self.coverage_dir, "GLOBAL" + _TASK_SUFFIX),
                      payload)

    def read_coverage_global(self) -> Optional[Dict[str, object]]:
        """The latest global-map broadcast, or ``None`` before the first."""
        path = os.path.join(self.coverage_dir, "GLOBAL" + _TASK_SUFFIX)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        return payload if isinstance(payload, dict) else None

    def publish_coverage_snapshot(self, worker_id: str,
                                  payload: Dict[str, object]) -> None:
        """Publish a worker's parting view of the global map (drain/exit path).

        The equivalence invariant lives here: after a clean corpus-mode
        shutdown every ``final.<worker>.json`` carries exactly the point
        set of the dispatcher's map (test-enforced).
        """
        name = f"final.{worker_id}{_TASK_SUFFIX}"
        self._publish(os.path.join(self.coverage_dir, name), payload)

    def coverage_snapshots(self) -> Dict[str, Dict[str, object]]:
        """All worker parting snapshots, keyed by worker id."""
        snapshots: Dict[str, Dict[str, object]] = {}
        for name in self._listdir(self.coverage_dir):
            if not name.startswith("final."):
                continue
            worker_id = name[len("final."):].rsplit(_TASK_SUFFIX, 1)[0]
            try:
                with open(os.path.join(self.coverage_dir, name),
                          "r", encoding="utf-8") as handle:
                    payload = json.load(handle)
            except (OSError, json.JSONDecodeError):
                continue
            if isinstance(payload, dict):
                snapshots[worker_id] = payload
        return snapshots

    # ----------------------------------------------------------------- worker
    def claim(self, worker_id: str) -> Optional[ClaimedTask]:
        """Atomically claim the oldest pending task (or ``None`` if empty).

        The claim moves the task file to ``claimed/<task>.json.<worker>``;
        losing a rename race to another worker just moves on to the next
        pending file.
        """
        for name in sorted(self._listdir(self.tasks_dir)):
            source = os.path.join(self.tasks_dir, name)
            target = os.path.join(self.claimed_dir, f"{name}.{worker_id}")
            try:
                os.rename(source, target)
            except OSError:
                continue  # another worker won this file
            try:
                # rename preserves mtime; the lease clock starts at *claim*
                # time, not at enqueue time, or a batch that waited in
                # tasks/ longer than the lease would be "stale" on arrival.
                os.utime(target, None)
            except OSError:
                pass
            try:
                with open(target, "r", encoding="utf-8") as handle:
                    payload = json.load(handle)
            except (OSError, json.JSONDecodeError):
                continue  # requeued/compromised under us; try the next file
            task_id = name.split(_TASK_SUFFIX)[0]
            for rule in faults.fire(faults.SITE_QUEUE_CLAIM, task_id=task_id, worker=worker_id):
                if rule.action == faults.ACTION_BACKDATE:
                    # Claim-steal simulation: the fresh claim looks ancient,
                    # so the next stale sweep hands it to another worker
                    # while this one is still executing.
                    try:
                        os.utime(target, (1, 1))
                    except OSError:
                        pass
                else:
                    faults.perform(rule)
            return ClaimedTask(task_id=task_id, path=target, payload=payload)
        return None

    def complete(self, claim: ClaimedTask, result: Dict[str, object]) -> None:
        """Publish ``result`` for a claimed task and release the claim.

        Publishing retries transient ``OSError``s under jittered backoff
        (:data:`PUBLISH_RETRIES` attempts) before letting the error
        propagate -- shared filesystems hiccup, and one blip must not turn
        a finished batch into a full re-execution.
        """
        path = os.path.join(self.results_dir, claim.task_id + _TASK_SUFFIX)
        torn = None
        transient_failures = 0
        for rule in faults.fire(faults.SITE_QUEUE_PUBLISH, task_id=claim.task_id):
            if rule.action == faults.ACTION_TORN:
                torn = rule
            elif rule.action == faults.ACTION_OSERROR:
                # Fed into _publish's retry loop (one failed attempt per
                # fired rule): a transient blip must cost a backoff, not
                # the worker.
                transient_failures += 1
            else:
                faults.perform(rule)
        if torn is not None:
            # A corrupted publish: the worker believes it succeeded and
            # releases the claim, but the dispatcher reads garbage.
            data = json.dumps(result, sort_keys=True).encode("utf-8")
            with open(path, "wb") as handle:
                handle.write(faults.corrupt_bytes(data, torn))
        else:
            self._publish(path, result, fail_first=transient_failures)
        try:
            os.unlink(claim.path)
        except FileNotFoundError:
            pass  # lease expired and the claim was requeued; result stands

    def stop_requested(self) -> bool:
        return os.path.exists(self.stop_path)

    # ---------------------------------------------------------------- queries
    def result_ids(self) -> List[str]:
        """Task ids with a published result (one directory scan)."""
        names = self._listdir(self.results_dir)
        return [name.split(_TASK_SUFFIX)[0] for name in names]

    def task_ids(self) -> List[str]:
        """Pending task ids (one directory scan)."""
        return [name.split(_TASK_SUFFIX)[0] for name in self._listdir(self.tasks_dir)]

    def claimed_ids(self) -> List[str]:
        """Task ids currently claimed by some worker (one directory scan)."""
        return [name.split(_TASK_SUFFIX)[0] for name in self._listdir(self.claimed_dir)]

    def pending_count(self) -> int:
        return len(self._listdir(self.tasks_dir))

    def claimed_count(self) -> int:
        return len(self._listdir(self.claimed_dir))

    def stats(self) -> Dict[str, int]:
        return {
            "pending": self.pending_count(),
            "claimed": self.claimed_count(),
            "results": len(self._listdir(self.results_dir)),
            "deadletter": len(self._listdir(self.deadletter_dir)),
        }

    # ---------------------------------------------------------------- helpers
    @staticmethod
    def _listdir(directory: str) -> List[str]:
        try:
            names = os.listdir(directory)
        except FileNotFoundError:
            return []
        return [name for name in names if not name.startswith(".")]

    @staticmethod
    def _unique() -> str:
        # The random suffix matters: pids collide across hosts/containers
        # sharing the filesystem, and two workers finishing a requeued
        # batch concurrently must not interleave into one temp file.
        return f"{os.getpid()}.{os.urandom(4).hex()}"

    @staticmethod
    def _unlink_quiet(path: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass

    def _publish(self, path: str, payload: Dict[str, object], fail_first: int = 0) -> None:
        """Atomic write with bounded retries on transient ``OSError``.

        ``fail_first`` makes the first N attempts fail with an injected
        error (fault-injection hook for the ``oserror`` action).
        """
        backoff = self._publish_backoff
        for attempt in range(PUBLISH_RETRIES):
            try:
                if attempt < fail_first:
                    raise faults.InjectedError(f"injected transient fault publishing {path}")
                self._write_atomic(path, payload)
                backoff.reset()  # outage over: decay back to the base delay
                return
            except OSError:
                if attempt == PUBLISH_RETRIES - 1:
                    raise
                backoff.sleep()

    @staticmethod
    def _write_atomic(path: str, payload: Dict[str, object]) -> None:
        tmp_name = f".{os.path.basename(path)}.tmp.{SpoolQueue._unique()}"
        tmp_path = os.path.join(os.path.dirname(path), tmp_name)
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        os.rename(tmp_path, path)
