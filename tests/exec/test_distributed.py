"""End-to-end tests of the distributed backend with real worker processes.

These spawn ``repro.cli worker`` subprocesses against a temporary spool
directory -- exactly what a multi-container deployment does, minus the
shared network filesystem.
"""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.monitor import ProgressMonitor
from repro.exec import (
    CampaignEngine,
    DistributedBackend,
    SerialBackend,
    SpoolQueue,
    faults,
    run_worker,
)
from repro.exec.batching import TrialBatch, TrialTask, batch_to_wire
from repro.exec.faults import FaultPlan, FaultRule
from repro.exec.queue import REASON_ATTEMPTS_EXHAUSTED
from repro.fuzzing.base import FuzzerConfig
from repro.harness.campaign import CampaignSpec

SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")
SMALL_CONFIG = FuzzerConfig(num_seeds=3, mutants_per_test=2)


def _grid():
    return [
        CampaignSpec(processor="rocket", fuzzer="thehuzz", num_tests=6,
                     trials=2, seed=17, bugs=[], fuzzer_config=SMALL_CONFIG),
        CampaignSpec(processor="cva6", fuzzer="mabfuzz:ucb", num_tests=6,
                     trials=2, seed=17, bugs=["V5"],
                     fuzzer_config=SMALL_CONFIG),
    ]


def _canonical(trialsets):
    return [[r.canonical_dict() for r in ts.results] for ts in trialsets]


def _start_worker(queue_dir, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "worker", "--queue",
         str(queue_dir), "--poll-interval", "0.05", *extra],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def _backend(queue_dir, **overrides):
    options = {"poll_interval": 0.05, "max_wait_seconds": 120.0,
               "stop_workers_on_exit": True}
    options.update(overrides)
    return DistributedBackend(str(queue_dir), **options)


class TestDistributedDeterminism:
    def test_two_workers_match_serial_bit_for_bit(self, tmp_path):
        specs = _grid()
        serial = CampaignEngine(backend=SerialBackend()).run_grid(specs)
        queue_dir = tmp_path / "spool"
        workers = [_start_worker(queue_dir), _start_worker(queue_dir)]
        try:
            backend = _backend(queue_dir, batch_size=1)  # spread the load
            distributed = CampaignEngine(backend=backend).run_grid(specs)
        finally:
            for worker in workers:
                try:
                    worker.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    worker.kill()
                    raise
        assert _canonical(distributed) == _canonical(serial)
        # STOP sentinel written, queue drained, results consumed.
        queue = SpoolQueue(str(queue_dir))
        assert queue.stop_requested()
        assert queue.stats() == {"pending": 0, "claimed": 0, "results": 0,
                                 "deadletter": 0}

    def test_kill_and_reattach_worker_mid_grid(self, tmp_path):
        """A worker dies holding a claim; a later worker rescues the batch."""
        specs = _grid()
        serial = CampaignEngine(backend=SerialBackend()).run_grid(specs)
        queue_dir = tmp_path / "spool"
        journal = tmp_path / "grid.jsonl"
        backend = _backend(queue_dir, batch_size=1, lease_timeout=1.0)
        engine = CampaignEngine(backend=backend, checkpoint_path=str(journal))
        outcome = {}

        def dispatch():
            outcome["trialsets"] = engine.run_grid(specs)

        dispatcher = threading.Thread(target=dispatch)
        dispatcher.start()
        # Pose as a worker that claims a batch and is then SIGKILLed: the
        # claim file stays behind with no process attached to it.
        queue = SpoolQueue(str(queue_dir))
        claim = None
        deadline = time.monotonic() + 30.0
        while claim is None and time.monotonic() < deadline:
            claim = queue.claim("doomed-worker")
            if claim is None:
                time.sleep(0.02)
        assert claim is not None, "dispatcher never enqueued work"
        os.utime(claim.path, (1, 1))  # the kill happened long ago

        worker = _start_worker(queue_dir)  # re-attach a live worker
        dispatcher.join(timeout=120)
        assert not dispatcher.is_alive()
        worker.wait(timeout=60)
        assert _canonical(outcome["trialsets"]) == _canonical(serial)

        # The journal now holds the whole grid: a resumed distributed run
        # restores everything and never touches the queue again.
        resumed_backend = _backend(tmp_path / "fresh-spool")
        monitor = ProgressMonitor()
        resumed = CampaignEngine(backend=resumed_backend,
                                 checkpoint_path=str(journal),
                                 monitor=monitor).run_grid(specs)
        assert monitor.restored_trials == sum(s.trials for s in specs)
        assert _canonical(resumed) == _canonical(serial)
        # Nothing was enqueued (no worker served fresh-spool), and the
        # restored run still released any fleet watching the queue.
        fresh = SpoolQueue(str(tmp_path / "fresh-spool"))
        assert fresh.stats() == {"pending": 0, "claimed": 0, "results": 0,
                                 "deadletter": 0}
        assert fresh.stop_requested()


class TestWorkerLoop:
    def test_worker_drains_then_stops_on_sentinel(self, tmp_path):
        queue = SpoolQueue(str(tmp_path / "spool")).ensure()
        spec = _grid()[0]
        batch = TrialBatch(index=0, tasks=(TrialTask(0, 0, spec),))
        queue.enqueue("run-000000", batch_to_wire(batch))
        queue.request_stop()  # already set: worker must still drain the task
        executed = run_worker(str(tmp_path / "spool"), worker_id="w0",
                              poll_interval=0.01)
        assert executed == 1
        assert queue.collect("run-000000")["results"][0]["trial_index"] == 0

    def test_worker_max_tasks_bounds_execution(self, tmp_path):
        queue = SpoolQueue(str(tmp_path / "spool")).ensure()
        spec = _grid()[0]
        for index in range(2):
            batch = TrialBatch(index=index,
                               tasks=(TrialTask(0, index, spec),))
            queue.enqueue(f"run-{index:06d}", batch_to_wire(batch))
        executed = run_worker(str(tmp_path / "spool"), worker_id="w0",
                              poll_interval=0.01, max_tasks=1)
        assert executed == 1
        assert queue.pending_count() == 1

    def test_poisoned_batch_reports_error_and_worker_survives(self, tmp_path):
        queue = SpoolQueue(str(tmp_path / "spool")).ensure()
        queue.enqueue("run-000000", {"kind": "batch", "batch": 0,
                                     "tasks": "not-a-list"})
        queue.request_stop()
        executed = run_worker(str(tmp_path / "spool"), worker_id="w0",
                              poll_interval=0.01)
        assert executed == 1
        assert "error" in queue.collect("run-000000")

    def test_deferred_worker_stays_off_the_queue_until_released(self, tmp_path):
        queue = SpoolQueue(str(tmp_path / "spool")).ensure()
        spec = _grid()[0]
        batch = TrialBatch(index=0, tasks=(TrialTask(0, 0, spec),))
        queue.enqueue("run-000000", batch_to_wire(batch))
        queue.request_stop()
        beacon = tmp_path / "beacon"
        faults.install(FaultPlan(rules=(FaultRule(
            site=faults.SITE_WORKER_POLL, action="defer", times=0,
            beacon=str(beacon)),)).injector())
        try:
            # Deferred, the worker claims nothing but still honours STOP.
            assert run_worker(str(tmp_path / "spool"), worker_id="w0",
                              poll_interval=0.01) == 0
            assert queue.pending_count() == 1
            beacon.write_bytes(b".")  # the awaited fault fired elsewhere
            assert run_worker(str(tmp_path / "spool"), worker_id="w0",
                              poll_interval=0.01) == 1
        finally:
            faults.uninstall()
        assert queue.collect("run-000000")["results"][0]["trial_index"] == 0

    def test_failing_batch_is_quarantined_not_raised(self, tmp_path):
        # A batch that fails on every execution burns its retry budget and
        # lands in deadletter/; the grid completes (with the batch reported
        # as lost) instead of raising mid-stream or requeueing forever.
        bad = CampaignSpec(processor="rocket", fuzzer="no-such-fuzzer",
                           num_tests=6, trials=1, seed=3, bugs=[],
                           fuzzer_config=SMALL_CONFIG)
        queue_dir = tmp_path / "spool"
        worker = _start_worker(queue_dir)
        try:
            backend = _backend(queue_dir, max_attempts=2)
            results = list(backend.run([TrialTask(0, 0, bad)]))
        finally:
            worker.wait(timeout=60)
        assert results == []
        assert backend.robustness_stats["retried"] == 1
        assert backend.robustness_stats["deadlettered"] == 1
        assert len(backend.quarantined) == 1  # quarantined exactly once
        entry = backend.quarantined[0]
        assert "no-such-fuzzer" in entry["error"]
        assert entry["tasks"] == [(0, 0)]
        record = SpoolQueue(str(queue_dir)).read_deadletter(entry["task_id"])
        assert record is not None
        assert "no-such-fuzzer" in record["error"]
        assert record["attempts"] == 2
        assert entry["reason"] == record["reason"] == REASON_ATTEMPTS_EXHAUSTED

    def test_empty_grid_still_writes_stop_sentinel(self, tmp_path):
        # A fully journal-restored grid submits zero tasks; --stop-workers
        # must still release the attached fleet.
        backend = _backend(tmp_path / "spool")
        assert list(backend.run([])) == []
        assert SpoolQueue(str(tmp_path / "spool")).stop_requested()

    def test_dispatcher_clears_leftover_stop_sentinel(self, tmp_path):
        # Grid 1 ended with --stop-workers; reusing the spool for grid 2
        # must not make freshly attached workers exit immediately.
        queue_dir = tmp_path / "spool"
        queue = SpoolQueue(str(queue_dir)).ensure()
        queue.request_stop()
        engine = CampaignEngine(backend=_backend(queue_dir))
        outcome = {}

        def dispatch():
            outcome["trialsets"] = engine.run_grid(_grid()[:1])

        dispatcher = threading.Thread(target=dispatch)
        dispatcher.start()
        deadline = time.monotonic() + 30.0
        while queue.stop_requested() and time.monotonic() < deadline:
            time.sleep(0.02)  # wait for the dispatcher to clear the sentinel
        assert not queue.stop_requested()
        worker = _start_worker(queue_dir)
        dispatcher.join(timeout=120)
        assert not dispatcher.is_alive()
        worker.wait(timeout=60)
        assert outcome["trialsets"][0].is_complete

    def test_timeout_without_workers(self, tmp_path):
        backend = _backend(tmp_path / "spool", max_wait_seconds=0.3,
                           stop_workers_on_exit=False)
        spec = _grid()[0]
        with pytest.raises(TimeoutError, match="stalled"):
            for _ in backend.run([TrialTask(0, 0, spec)]):
                pass
