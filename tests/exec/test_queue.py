"""Tests for the spool-directory work queue (no campaigns involved)."""

import json
import os

from repro.exec.queue import REASON_ATTEMPTS_EXHAUSTED, SpoolQueue


def _queue(tmp_path):
    return SpoolQueue(str(tmp_path / "spool")).ensure()


class TestEnqueueClaim:
    def test_claim_empty_queue(self, tmp_path):
        assert _queue(tmp_path).claim("w0") is None

    def test_claim_returns_payload_and_moves_file(self, tmp_path):
        queue = _queue(tmp_path)
        queue.enqueue("t0", {"kind": "batch", "batch": 0})
        claim = queue.claim("w0")
        assert claim is not None
        assert claim.task_id == "t0"
        assert claim.payload["batch"] == 0
        assert queue.pending_count() == 0
        assert queue.claimed_count() == 1
        assert os.path.basename(claim.path).endswith(".w0")

    def test_oldest_task_claimed_first(self, tmp_path):
        queue = _queue(tmp_path)
        for index in range(3):
            queue.enqueue(f"t{index}", {"index": index})
        assert queue.claim("w0").task_id == "t0"
        assert queue.claim("w0").task_id == "t1"

    def test_two_claimants_cannot_share_a_task(self, tmp_path):
        queue = _queue(tmp_path)
        queue.enqueue("t0", {"index": 0})
        first = queue.claim("w0")
        second = queue.claim("w1")
        assert first is not None
        assert second is None


class TestCompleteCollect:
    def test_result_round_trip(self, tmp_path):
        queue = _queue(tmp_path)
        queue.enqueue("t0", {"index": 0})
        claim = queue.claim("w0")
        assert queue.collect("t0") is None
        queue.complete(claim, {"results": [1, 2, 3]})
        assert queue.collect("t0") == {"results": [1, 2, 3]}
        assert queue.claimed_count() == 0

    def test_complete_after_requeue_is_harmless(self, tmp_path):
        # Lease expired, the task was requeued, then the original (slow,
        # not dead) worker finished anyway: its claim file is gone but the
        # result must still land.
        queue = _queue(tmp_path)
        queue.enqueue("t0", {"index": 0})
        claim = queue.claim("w0")
        os.utime(claim.path, (1, 1))
        assert queue.requeue_stale(lease_timeout=1.0) == ["t0"]
        queue.complete(claim, {"done": True})
        assert queue.collect("t0") == {"done": True}
        assert queue.pending_count() == 1  # the requeued copy still exists

    def test_results_are_written_atomically(self, tmp_path):
        queue = _queue(tmp_path)
        queue.enqueue("t0", {"index": 0})
        queue.complete(queue.claim("w0"), {"big": "x" * 4096})
        # No temp droppings left behind, and the file parses whole.
        assert all(not name.startswith(".")
                   for name in os.listdir(queue.results_dir))
        with open(os.path.join(queue.results_dir, "t0.json")) as handle:
            assert json.load(handle)["big"]


class TestRequeueStale:
    def test_fresh_claims_are_left_alone(self, tmp_path):
        queue = _queue(tmp_path)
        queue.enqueue("t0", {"index": 0})
        queue.claim("w0")
        assert queue.requeue_stale(lease_timeout=60.0) == []
        assert queue.claimed_count() == 1

    def test_lease_clock_starts_at_claim_time(self, tmp_path):
        # A batch may sit in tasks/ far longer than the lease before a
        # worker frees up (rename preserves mtime); claiming must restart
        # the clock or a busy grid would requeue every in-flight batch.
        queue = _queue(tmp_path)
        queue.enqueue("t0", {"index": 0})
        task_path = os.path.join(queue.tasks_dir, "t0.json")
        os.utime(task_path, (1, 1))  # enqueued "ages" ago
        queue.claim("w0")
        assert queue.requeue_stale(lease_timeout=60.0) == []
        assert queue.claimed_count() == 1

    def test_stale_claim_returns_to_pending(self, tmp_path):
        queue = _queue(tmp_path)
        queue.enqueue("t0", {"index": 0})
        claim = queue.claim("w0")
        os.utime(claim.path, (1, 1))
        assert queue.requeue_stale(lease_timeout=5.0) == ["t0"]
        assert queue.pending_count() == 1
        rescued = queue.claim("w1")
        assert rescued.task_id == "t0"
        # The requeue bumped the retry envelope; the original payload rides
        # along untouched.
        assert rescued.payload == {"index": 0, "attempts": 1}
        assert rescued.attempts == 1


class TestDiscardAndSweep:
    def test_discard_task_and_result(self, tmp_path):
        queue = _queue(tmp_path)
        queue.enqueue("t0", {})
        assert queue.discard_task("t0")
        assert not queue.discard_task("t0")  # already gone (or claimed)
        queue.enqueue("t1", {})
        queue.complete(queue.claim("w0"), {"done": True})
        assert queue.discard_result("t1")
        assert queue.stats() == {"pending": 0, "claimed": 0, "results": 0,
                                 "deadletter": 0}

    def test_sweep_removes_only_ancient_results(self, tmp_path):
        queue = _queue(tmp_path)
        for task_id in ("old", "new"):
            queue.enqueue(task_id, {})
            queue.complete(queue.claim("w0"), {})
        old_path = os.path.join(queue.results_dir, "old.json")
        os.utime(old_path, (1, 1))
        assert queue.sweep_stale_results(older_than=3600.0) == ["old"]
        assert queue.collect("new") == {}
        assert queue.collect("old") is None


class TestStopSentinel:
    def test_stop_round_trip(self, tmp_path):
        queue = _queue(tmp_path)
        assert not queue.stop_requested()
        queue.request_stop()
        assert queue.stop_requested()
        queue.clear_stop()
        assert not queue.stop_requested()
        queue.clear_stop()  # idempotent

    def test_stats(self, tmp_path):
        queue = _queue(tmp_path)
        queue.enqueue("t0", {})
        queue.enqueue("t1", {})
        queue.complete(queue.claim("w0"), {})
        assert queue.stats() == {"pending": 1, "claimed": 0, "results": 1,
                                 "deadletter": 0}


class TestHeartbeat:
    def test_heartbeat_renews_the_lease(self, tmp_path):
        queue = _queue(tmp_path)
        queue.enqueue("t0", {"index": 0})
        claim = queue.claim("w0")
        os.utime(claim.path, (1, 1))  # the claim "aged" past any lease
        assert claim.heartbeat()
        assert queue.requeue_stale(lease_timeout=5.0) == []
        assert queue.claimed_count() == 1

    def test_heartbeat_reports_a_lost_claim(self, tmp_path):
        queue = _queue(tmp_path)
        queue.enqueue("t0", {"index": 0})
        claim = queue.claim("w0")
        os.utime(claim.path, (1, 1))
        assert queue.requeue_stale(lease_timeout=1.0) == ["t0"]
        assert not claim.heartbeat()  # the file moved back to tasks/


class TestRetryBudget:
    def test_requeue_respects_payload_budget(self, tmp_path):
        queue = _queue(tmp_path)
        queue.enqueue("t0", {"index": 0}, attempts=0, max_attempts=2)
        for expected_attempts in (1,):
            claim = queue.claim("w0")
            os.utime(claim.path, (1, 1))
            assert queue.requeue_stale(lease_timeout=1.0) == ["t0"]
            assert queue.claim("w1").attempts == expected_attempts
        # Attempt 2 of 2: the budget is spent, so the next expiry
        # quarantines instead of requeueing.
        claim_path = os.path.join(queue.claimed_dir, "t0.json.w1")
        os.utime(claim_path, (1, 1))
        assert queue.requeue_stale(lease_timeout=1.0) == []
        assert queue.pending_count() == 0
        assert queue.deadletter_ids() == ["t0"]
        record = queue.read_deadletter("t0")
        assert record["attempts"] == 2
        assert "lease expired" in record["error"]
        assert record["reason"] == REASON_ATTEMPTS_EXHAUSTED
        assert record["payload"]["index"] == 0

    def test_requeue_budget_fallback_argument(self, tmp_path):
        # Tasks enqueued without a budget use the sweeper's fallback.
        queue = _queue(tmp_path)
        queue.enqueue("t0", {"index": 0})
        claim = queue.claim("w0")
        os.utime(claim.path, (1, 1))
        assert queue.requeue_stale(lease_timeout=1.0, max_attempts=1) == []
        assert queue.deadletter_ids() == ["t0"]

    def test_unreadable_claim_is_quarantined_immediately(self, tmp_path):
        queue = _queue(tmp_path)
        queue.enqueue("t0", {"index": 0})
        claim = queue.claim("w0")
        with open(claim.path, "w", encoding="utf-8") as handle:
            handle.write("{half a record")
        os.utime(claim.path, (1, 1))
        assert queue.requeue_stale(lease_timeout=1.0) == []
        assert queue.deadletter_ids() == ["t0"]
        assert "unreadable" in queue.read_deadletter("t0")["error"]

    def test_discard_deadletter(self, tmp_path):
        queue = _queue(tmp_path)
        queue.quarantine("t0", payload={}, attempts=3, error="boom")
        assert queue.discard_deadletter("t0")
        assert not queue.discard_deadletter("t0")
        assert queue.deadletter_ids() == []


class TestCorruptResults:
    def test_collect_turns_torn_result_into_error_payload(self, tmp_path):
        queue = _queue(tmp_path)
        with open(os.path.join(queue.results_dir, "t0.json"), "w") as handle:
            handle.write('{"results": [1, 2')  # torn mid-write
        payload = queue.collect("t0")
        assert payload["corrupt"]
        assert "t0" in payload["error"]

    def test_collect_turns_non_object_result_into_error_payload(self, tmp_path):
        queue = _queue(tmp_path)
        with open(os.path.join(queue.results_dir, "t0.json"), "w") as handle:
            handle.write('[1, 2, 3]')
        assert queue.collect("t0")["corrupt"]


class TestRaceTolerance:
    def test_requeue_tolerates_claims_vanishing_mid_scan(self, tmp_path):
        # Another sweeper (or the completing worker) removes the claim
        # between the directory scan and our rename: not an error.
        queue = _queue(tmp_path)
        queue.enqueue("t0", {"index": 0})
        queue.enqueue("t1", {"index": 1})
        for worker in ("w0", "w1"):
            claim = queue.claim(worker)
            os.utime(claim.path, (1, 1))
        real_rename = os.rename
        yanked = {}

        def racing_rename(src, dst):
            # First stale claim: simulate a concurrent sweeper winning.
            if ".requeue." in os.path.basename(dst) and not yanked:
                yanked["path"] = src
                os.unlink(src)
            return real_rename(src, dst)

        os.rename = racing_rename
        try:
            requeued = queue.requeue_stale(lease_timeout=1.0)
        finally:
            os.rename = real_rename
        assert len(requeued) == 1  # the surviving claim; no exception
        assert queue.deadletter_ids() == []

    def test_sweep_tolerates_results_vanishing_mid_scan(self, tmp_path):
        queue = _queue(tmp_path)
        queue.enqueue("t0", {})
        queue.complete(queue.claim("w0"), {})
        old_path = os.path.join(queue.results_dir, "t0.json")
        os.utime(old_path, (1, 1))
        real_getmtime = os.path.getmtime

        def racing_getmtime(path):
            if path == old_path:
                os.unlink(old_path)  # collected by its dispatcher just now
                raise FileNotFoundError(path)
            return real_getmtime(path)

        os.path.getmtime = racing_getmtime
        try:
            removed = queue.sweep_stale_results(older_than=3600.0)
        finally:
            os.path.getmtime = real_getmtime
        assert removed == []  # no exception, nothing double-counted

    def test_sweep_removes_ancient_scratch_files(self, tmp_path):
        queue = _queue(tmp_path)
        scratch = os.path.join(queue.claimed_dir, ".requeue.t0.json.w0.dead")
        with open(scratch, "w", encoding="utf-8") as handle:
            handle.write("{}")
        os.utime(scratch, (1, 1))
        queue.sweep_stale_results(older_than=3600.0)
        assert not os.path.exists(scratch)


class _SpyBackoff:
    """Records the delay schedule the publish path actually consumed."""

    def __init__(self):
        from repro.exec import faults

        self._inner = faults.Backoff(base=0.001, cap=0.002, jitter=0.0)
        self.delays = []

    def next(self):
        delay = self._inner.next()
        self.delays.append(delay)
        return delay

    def sleep(self):
        self.next()  # skip the real time.sleep: tests only track the schedule

    def reset(self):
        self._inner.reset()

    @property
    def attempt(self):
        return self._inner.attempt


class TestPublishBackoff:
    def test_queue_owns_one_long_lived_instance(self, tmp_path):
        queue = _queue(tmp_path)
        backoff = queue._publish_backoff
        queue.enqueue("t0", {"kind": "batch"})
        queue.request_stop()
        assert queue._publish_backoff is backoff  # per-site, not per-call

    def test_backoff_decays_after_outage_clears(self, tmp_path):
        """Regression: a publish outage escalates the shared schedule, and
        the success that ends it must reset the schedule so the *next*
        outage pays the base delay again, not the inflated leftover."""
        queue = _queue(tmp_path)
        spy = _SpyBackoff()
        queue._publish_backoff = spy

        queue.enqueue("t0", {"kind": "batch"})  # clean publish: no delays
        assert spy.delays == []

        path = os.path.join(queue.tasks_dir, "t1.task.json")
        queue._publish(path, {"kind": "batch"}, fail_first=2)
        assert spy.delays == [0.001, 0.002]  # escalated during the outage
        assert spy.attempt == 0  # the success reset the schedule

        queue._publish(os.path.join(queue.tasks_dir, "t2.task.json"),
                       {"kind": "batch"}, fail_first=1)
        # Second outage starts from base again -- the decay under test.
        assert spy.delays[-1] == 0.001
