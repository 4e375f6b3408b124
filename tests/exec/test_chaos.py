"""Chaos tests: scripted fault schedules against the full exec stack.

Every scenario here follows one template -- run a grid under a seeded
:class:`~repro.exec.faults.FaultPlan` (worker kills, claim steals, torn
results, journal corruption), then assert the self-healing layer delivered
**bit-identical results with zero lost trials**, the contract
``docs/robustness.md`` documents.  Determinism of trials is what makes the
oracle this sharp: recovery by re-execution must reproduce exactly what an
unfaulted serial run produces.
"""

import json
import os
import random
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
from repro.exec.faults import FaultPlan, FaultRule
from repro.fuzzing.base import FuzzerConfig
from repro.harness.campaign import CampaignSpec

SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")
SMALL_CONFIG = FuzzerConfig(num_seeds=3, mutants_per_test=2)


@pytest.fixture(autouse=True)
def _no_leaked_injector():
    yield
    faults.uninstall()


def _grid():
    return [
        CampaignSpec(processor="rocket", fuzzer="thehuzz", num_tests=6,
                     trials=2, seed=23, bugs=[], fuzzer_config=SMALL_CONFIG),
        CampaignSpec(processor="cva6", fuzzer="mabfuzz:ucb", num_tests=6,
                     trials=2, seed=23, bugs=["V5"],
                     fuzzer_config=SMALL_CONFIG),
    ]


def _canonical(trialsets):
    return [[r.canonical_dict() for r in ts.results] for ts in trialsets]


def _start_worker(queue_dir, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env.pop(faults.FAULT_PLAN_ENV, None)  # chaotic only where scripted
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "worker", "--queue",
         str(queue_dir), "--poll-interval", "0.05", *extra],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


class TestChaosRecovery:
    def test_kill_torn_result_and_claim_steal_recover_bit_identically(
            self, tmp_path):
        """The flagship chaos run: one worker tears a result file
        mid-publish, has its next lease stolen mid-batch (and aborts it),
        then dies holding a claim -- a clean worker and the dispatcher's
        retry budget must deliver the exact serial grid with nothing
        lost."""
        specs = _grid()
        serial = CampaignEngine(backend=SerialBackend()).run_grid(specs)
        plan = FaultPlan(rules=(
            # First publish is cut short mid-write (corrupt result file).
            FaultRule(site=faults.SITE_QUEUE_PUBLISH, action="torn",
                      times=1),
            # Second claim looks ancient: a stale sweep steals it while
            # the chaotic worker is still executing; its next heartbeat
            # notices and the batch is aborted (lease-lost path).
            FaultRule(site=faults.SITE_QUEUE_CLAIM, action="backdate",
                      after=1, times=1),
            # Hold the stolen batch until the sweep has requeued the
            # claim, so the worker's heartbeat certainly finds it gone.
            FaultRule(site=faults.SITE_WORKER_TRIAL, action="stall",
                      arg=60.0, after=1, times=1),
            # Third batch pickup dies holding the claim, like SIGKILL.
            FaultRule(site=faults.SITE_WORKER_BATCH, action="kill",
                      after=2, times=1),
        ))
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan.to_dict()))

        queue_dir = tmp_path / "spool"
        backend = DistributedBackend(
            str(queue_dir), poll_interval=0.05, lease_timeout=1.0,
            max_attempts=3, batch_size=1, max_wait_seconds=120.0,
            stop_workers_on_exit=True)
        engine = CampaignEngine(backend=backend)
        outcome = {}

        def dispatch():
            outcome["trialsets"] = engine.run_grid(specs)

        dispatcher = threading.Thread(target=dispatch)
        dispatcher.start()
        # Phase 1: the chaotic worker serves the queue alone, so its fault
        # schedule is guaranteed to play out: torn publish, stolen lease
        # (batch aborted), then death on the third batch pickup.
        chaotic = _start_worker(queue_dir, "--fault-plan", str(plan_path),
                                "--worker-id", "chaotic")
        clean = None
        try:
            chaotic.wait(timeout=60)
            # Phase 2: a clean worker picks up the wreckage -- the
            # requeued claim, the retried torn batch, and the rest.
            clean = _start_worker(queue_dir, "--worker-id", "clean")
            dispatcher.join(timeout=120)
            assert not dispatcher.is_alive()
            clean.wait(timeout=60)
        except subprocess.TimeoutExpired:
            for worker in (chaotic, clean):
                if worker is not None:
                    worker.kill()
            raise
        distributed = outcome["trialsets"]

        # Zero lost trials, bit-identical to the unfaulted serial run.
        assert _canonical(distributed) == _canonical(serial)
        assert all(ts.is_complete for ts in distributed)
        assert backend.quarantined == []
        # The injected kill really killed (SIGKILL-equivalent status) and
        # the self-healing was exercised, not bypassed.
        assert chaotic.returncode == faults.KILL_EXIT_CODE
        assert clean.returncode == 0
        assert backend.robustness_stats["retried"] >= 1  # torn result
        assert backend.robustness_stats["requeued"] >= 1  # stolen + killed claims

    def test_lease_lost_mid_batch_aborts_and_drops_the_result(self, tmp_path):
        """A worker whose lease is stolen mid-batch must abort the rest of
        the batch and publish nothing -- the re-execution by the lease's
        new owner is the only result that lands -- and the grid still
        completes bit-identically to serial."""
        specs = _grid()
        serial = CampaignEngine(backend=SerialBackend()).run_grid(specs)
        faults.install(FaultPlan(rules=(
            # First claim looks ancient: the dispatcher's stale sweep
            # requeues it while the worker holds its first trial.
            FaultRule(site=faults.SITE_QUEUE_CLAIM, action="backdate",
                      times=1),
            # The worker waits for that requeue before its between-trials
            # heartbeat, which therefore certainly notices the steal.
            FaultRule(site=faults.SITE_WORKER_TRIAL, action="stall",
                      arg=60.0, times=1),
        )).injector())
        queue_dir = str(tmp_path / "spool")
        log_lines = []
        worker = threading.Thread(
            target=run_worker,
            kwargs=dict(queue_dir=queue_dir, worker_id="stolen",
                        poll_interval=0.05, log=log_lines.append))
        worker.start()
        try:
            backend = DistributedBackend(
                queue_dir, poll_interval=0.05, lease_timeout=1.0,
                max_attempts=5, batch_size=1, max_wait_seconds=120.0,
                stop_workers_on_exit=True)
            distributed = CampaignEngine(backend=backend).run_grid(specs)
        finally:
            worker.join(timeout=60)
        assert not worker.is_alive()
        assert _canonical(distributed) == _canonical(serial)
        assert all(ts.is_complete for ts in distributed)
        assert backend.quarantined == []
        assert backend.robustness_stats["requeued"] >= 1  # the stolen claim
        # The worker saw the loss, said so, and dropped its execution.
        assert any("lease lost" in line for line in log_lines)

    def test_heartbeat_keeps_long_batch_from_being_requeued(self, tmp_path):
        """A batch that legitimately outlives the lease must not be stolen
        (and hence never duplicated): the worker heartbeats between trials."""
        spec = CampaignSpec(processor="rocket", fuzzer="thehuzz", num_tests=6,
                            trials=6, seed=23, bugs=[],
                            fuzzer_config=SMALL_CONFIG)
        serial = CampaignEngine(backend=SerialBackend()).run_grid([spec])
        # Every trial dawdles, so the batch certainly outlives the lease
        # (6 x 0.4 s of sleep alone > 2 s), while each heartbeat gap is
        # one dawdle plus one short trial -- far inside the lease even on
        # a starved host.
        lease = 2.0
        faults.install(FaultPlan(rules=(
            FaultRule(site=faults.SITE_WORKER_TRIAL, action="delay",
                      arg=0.4, times=0),
        )).injector())
        queue_dir = str(tmp_path / "spool")
        worker = threading.Thread(
            target=run_worker,
            kwargs=dict(queue_dir=queue_dir, worker_id="slow",
                        poll_interval=0.05))
        worker.start()
        try:
            backend = DistributedBackend(
                queue_dir, poll_interval=0.05, lease_timeout=lease,
                batch_size=None,  # all six trials in one long batch
                max_wait_seconds=120.0, stop_workers_on_exit=True)
            started = time.monotonic()
            distributed = CampaignEngine(backend=backend).run_grid([spec])
            elapsed = time.monotonic() - started
        finally:
            worker.join(timeout=60)
        assert not worker.is_alive()
        assert _canonical(distributed) == _canonical(serial)
        # The batch outlived the lease, yet nothing was requeued.
        assert elapsed > lease
        assert backend.robustness_stats["requeued"] == 0
        assert backend.robustness_stats["deadlettered"] == 0

    def test_transient_publish_errors_are_retried_through(self, tmp_path):
        """A filesystem hiccup on publish must cost a short backoff, not a
        batch re-execution (or a dead worker)."""
        spec = _grid()[0]
        serial = CampaignEngine(backend=SerialBackend()).run_grid([spec])
        faults.install(FaultPlan(rules=(
            FaultRule(site=faults.SITE_QUEUE_PUBLISH, action="oserror",
                      times=2),  # two blips, under the retry bound
        )).injector())
        queue_dir = str(tmp_path / "spool")
        worker = threading.Thread(
            target=run_worker,
            kwargs=dict(queue_dir=queue_dir, worker_id="blippy",
                        poll_interval=0.05))
        worker.start()
        try:
            backend = DistributedBackend(
                queue_dir, poll_interval=0.05, max_wait_seconds=120.0,
                stop_workers_on_exit=True)
            distributed = CampaignEngine(backend=backend).run_grid([spec])
        finally:
            worker.join(timeout=60)
        assert _canonical(distributed) == _canonical(serial)

    def test_chaotic_journal_still_resumes_exactly(self, tmp_path):
        """Journal appends corrupted mid-grid: the salvage pass drops the
        damaged records on resume and re-runs exactly those trials."""
        spec = CampaignSpec(processor="rocket", fuzzer="thehuzz", num_tests=6,
                            trials=4, seed=23, bugs=[],
                            fuzzer_config=SMALL_CONFIG)
        path = str(tmp_path / "grid.jsonl")
        faults.install(FaultPlan(rules=(
            FaultRule(site=faults.SITE_JOURNAL_APPEND, action="corrupt",
                      after=2, times=1, match=(("kind", "trial"),)),
        )).injector())
        reference = CampaignEngine(backend=SerialBackend(),
                                   checkpoint_path=path).run_grid([spec])[0]
        faults.uninstall()

        monitor_lines = []
        engine = CampaignEngine(
            backend=SerialBackend(), checkpoint_path=path,
            monitor=ProgressMonitor(sink=monitor_lines.append))
        resumed = engine.run_grid([spec])[0]
        assert ([r.canonical_dict() for r in resumed.results]
                == [r.canonical_dict() for r in reference.results])
        assert engine.last_run_report["journal_salvage"]["dropped"] == 1
        assert engine.last_run_report["journal_salvage"]["loaded"] == 3
        # The damage is surfaced, not hidden.
        assert any("journal-dropped 1" in line for line in monitor_lines)


class TestQueueConcurrencyProperty:
    def test_no_task_is_ever_lost_under_racing_workers(self, tmp_path):
        """Property: hammer one SpoolQueue with racing claim / requeue /
        complete / abandon threads under an aggressive lease -- afterwards
        every task has either a published result or a deadletter record,
        and the queue is empty.  Nothing vanishes."""
        queue = SpoolQueue(str(tmp_path / "spool")).ensure()
        task_ids = [f"t{index:03d}" for index in range(32)]
        for task_id in task_ids:
            queue.enqueue(task_id, {"id": task_id}, max_attempts=4)
        deadline = time.monotonic() + 60.0
        failures = []

        def hammer(worker_index):
            rng = random.Random(worker_index)
            try:
                while time.monotonic() < deadline:
                    if not queue.task_ids() and not queue.claimed_ids():
                        return
                    queue.requeue_stale(lease_timeout=0.05)
                    claim = queue.claim(f"w{worker_index}")
                    if claim is None:
                        time.sleep(0.002)
                        continue
                    roll = rng.random()
                    if roll < 0.3:
                        # Simulate a worker death: walk away holding the
                        # claim, backdated so rescue is immediate.
                        try:
                            os.utime(claim.path, (1, 1))
                        except OSError:
                            pass
                        continue
                    if roll < 0.4:
                        time.sleep(0.08)  # slow worker: lease expires
                    queue.complete(claim, {"done": claim.task_id,
                                           "attempts": claim.attempts})
            except Exception as exc:  # pragma: no cover - the failure path
                failures.append(exc)

        threads = [threading.Thread(target=hammer, args=(index,))
                   for index in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=90)
        assert not failures, failures
        assert all(not thread.is_alive() for thread in threads)

        completed = set(queue.result_ids())
        quarantined = set(queue.deadletter_ids())
        # The property: every task is accounted for -- completed (exactly
        # one result file per id; duplicates collapsed by the atomic
        # rename) or dead-lettered after its budget.  Never lost.
        assert completed | quarantined == set(task_ids)
        assert queue.pending_count() == 0
        assert queue.claimed_count() == 0
        for task_id in quarantined:
            record = queue.read_deadletter(task_id)
            assert record is not None
            assert record["task_id"] == task_id
