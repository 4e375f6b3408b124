"""Chaos tests for supervised transports: host death, crash loops, sink
outages.

Extends the :mod:`tests.exec.test_chaos` template to the campaign-as-a-
service layer (``docs/service.md``): the dispatcher now *owns* its
workers through a :class:`~repro.exec.transport.WorkerSupervisor` instead
of assuming someone else keeps them alive.  The oracles stay just as
sharp -- a grid that loses a supervised host mid-batch must still finish
bit-identical to serial, a crash-looping host must degrade without
hanging the grid, and a telemetry listener dying mid-campaign must cost
at most the documented sent-but-unread window.
"""

import json
import os
import threading
import time
from pathlib import Path

import pytest

from repro.core.monitor import ProgressMonitor
from repro.exec import (
    CampaignEngine,
    DistributedBackend,
    LocalTransport,
    SerialBackend,
    WorkerSpec,
    WorkerSupervisor,
    faults,
)
from repro.exec.faults import FaultPlan, FaultRule
from repro.exec.queue import REASON_ATTEMPTS_EXHAUSTED, REASON_NO_LIVE_WORKERS
from repro.fuzzing.base import FuzzerConfig
from repro.harness.campaign import CampaignSpec
from repro.telemetry import TcpSink, TelemetryListener, decode_line

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


def _worker_env():
    return {"PYTHONPATH": SRC_DIR + os.pathsep + os.environ.get("PYTHONPATH", "")}


def _supervisor(queue_dir, specs, **kwargs):
    kwargs.setdefault("env", _worker_env())
    kwargs.setdefault("worker_args", ("--poll-interval", "0.05"))
    return WorkerSupervisor(specs, queue_dir=str(queue_dir), **kwargs)


def _backend(queue_dir, supervisor, **kwargs):
    kwargs.setdefault("max_attempts", 3)
    return DistributedBackend(
        str(queue_dir), poll_interval=0.05, lease_timeout=1.0,
        batch_size=1, max_wait_seconds=120.0, supervisor=supervisor,
        **kwargs)


def _write_plan(tmp_path, name, *rules):
    path = tmp_path / name
    path.write_text(json.dumps(FaultPlan(rules=rules).to_dict()))
    return str(path)


def _kill_plan(tmp_path, name="plan.json", times=1):
    """A plan that kills the worker on its first batch pickup, marking the
    ``deaths`` beacon as it goes."""
    return _write_plan(tmp_path, name, FaultRule(
        site=faults.SITE_WORKER_BATCH, action="kill", times=times,
        beacon=str(tmp_path / "deaths")))


def _await_deaths_plan(tmp_path, deaths, name="await.json"):
    """A plan that keeps a healthy worker off the queue until ``deaths``
    kills have marked the beacon, so the doomed host is certain to claim a
    batch (and die) before its peer can drain the queue."""
    return _write_plan(tmp_path, name, FaultRule(
        site=faults.SITE_WORKER_POLL, action="defer", times=0, arg=deaths,
        beacon=str(tmp_path / "deaths")))


class TestSupervisedRecovery:
    def test_host_death_mid_batch_recovers_bit_identically(self, tmp_path):
        """Acceptance: one supervised worker's host dies mid-batch; the
        supervisor restarts it under the crash-loop budget and the grid
        finishes bit-identical to serial, with the restart visible in
        ``last_run_report["transport"]`` and the closing monitor line."""
        specs = _grid()
        serial = CampaignEngine(backend=SerialBackend()).run_grid(specs)

        queue_dir = tmp_path / "spool"
        worker_specs = [
            # The doomed host: its generation-0 worker dies on its first
            # batch pickup (the plan is not re-exported to the restart).
            WorkerSpec(host="doomed", transport=LocalTransport(),
                       fault_plan=_kill_plan(tmp_path)),
            # The steady host waits for that death before it serves.
            WorkerSpec(host="steady", transport=LocalTransport(),
                       fault_plan=_await_deaths_plan(tmp_path, 1)),
        ]
        supervisor = _supervisor(queue_dir, worker_specs,
                                 log_dir=str(tmp_path / "logs"))
        engine_lines = []
        engine = CampaignEngine(
            backend=_backend(queue_dir, supervisor),
            monitor=ProgressMonitor(sink=engine_lines.append))
        trialsets = engine.run_grid(specs)

        assert _canonical(trialsets) == _canonical(serial)
        report = engine.last_run_report
        assert report["quarantined_trials"] == 0
        transport = report["transport"]
        assert transport["restarts"] >= 1
        assert transport["degraded_hosts"] == []
        assert transport["spawned"] >= 3  # two hosts + one respawn
        assert transport["hosts"] == 2
        # The lost batch came back through the standard self-healing
        # path: the dead worker's claim expired and was requeued.
        assert report["robustness"].get("requeued", 0) >= 1
        closing = [line for line in engine_lines
                   if line.startswith("transport:")]
        assert len(closing) == 1
        assert "restarted" in closing[0]
        assert "0 degraded" in closing[0]

    def test_crash_looping_host_degrades_and_grid_completes(self, tmp_path):
        """Acceptance: a host whose worker dies on *every* generation
        burns its crash-loop budget, is marked degraded, and the grid
        still completes -- degraded capacity means quarantined trials,
        never a hang."""
        specs = _grid()
        queue_dir = tmp_path / "spool"
        worker_specs = [
            WorkerSpec(host="cursed", transport=LocalTransport(),
                       fault_plan=_kill_plan(tmp_path),
                       fault_plan_all_generations=True),
        ]
        supervisor = _supervisor(queue_dir, worker_specs,
                                 crash_loop_budget=2)
        engine_lines = []
        engine = CampaignEngine(
            backend=_backend(queue_dir, supervisor, max_attempts=2),
            monitor=ProgressMonitor(sink=engine_lines.append))
        trialsets = engine.run_grid(specs)

        report = engine.last_run_report
        transport = report["transport"]
        assert transport["degraded_hosts"] == ["cursed"]
        assert transport["restarts"] == 2  # the budget, then degradation
        # Every trial is accounted for: completed or quarantined, none
        # lost and no hang.
        completed = sum(sum(1 for r in ts.results if r is not None)
                        for ts in trialsets)
        total = sum(spec.trials for spec in specs)
        assert completed + report["quarantined_trials"] == total
        assert report["quarantined_trials"] > 0
        # Three generations claim at most three of the four batches before
        # the host degrades: the rest can only go as "no live workers".
        # A batch one dead worker after another held runs out of attempts
        # first.
        reasons = [entry["reason"] for entry in report["quarantined"]]
        assert REASON_NO_LIVE_WORKERS in reasons
        assert set(reasons) <= {REASON_NO_LIVE_WORKERS,
                                REASON_ATTEMPTS_EXHAUSTED}
        closing = [line for line in engine_lines
                   if line.startswith("transport:")]
        assert len(closing) == 1
        assert "1 degraded (cursed)" in closing[0]

    def test_degraded_host_share_redistributes_to_survivor(self, tmp_path):
        """One host crash-loops into degradation while a healthy one
        keeps serving: the survivor absorbs the full grid and the result
        stays bit-identical to serial -- nothing quarantined."""
        specs = _grid()
        serial = CampaignEngine(backend=SerialBackend()).run_grid(specs)

        queue_dir = tmp_path / "spool"
        worker_specs = [
            WorkerSpec(host="cursed", transport=LocalTransport(),
                       fault_plan=_kill_plan(tmp_path),
                       fault_plan_all_generations=True),
            # Budget 1: the second death degrades the cursed host, and the
            # steady host serves only after it.
            WorkerSpec(host="steady", transport=LocalTransport(),
                       fault_plan=_await_deaths_plan(tmp_path, 2)),
        ]
        supervisor = _supervisor(queue_dir, worker_specs,
                                 crash_loop_budget=1)
        engine = CampaignEngine(backend=_backend(queue_dir, supervisor))
        trialsets = engine.run_grid(specs)

        assert _canonical(trialsets) == _canonical(serial)
        report = engine.last_run_report
        assert report["quarantined_trials"] == 0
        assert report["transport"]["degraded_hosts"] == ["cursed"]

    def test_telemetry_listener_outage_mid_campaign(self, tmp_path):
        """Acceptance: kill and restart the TCP listener mid-campaign.
        The campaign must not block, the grid stays bit-identical, and
        event loss is bounded by the documented sent-but-unread window
        (the spill file accounts for everything else)."""
        specs = _grid()
        serial = CampaignEngine(backend=SerialBackend()).run_grid(specs)

        queue_dir = tmp_path / "spool"
        spill = tmp_path / "spill.ndjson"
        buffer_limit = 8
        listener = TelemetryListener()
        listener.start()
        port = listener.port
        sink = TcpSink("127.0.0.1", port, buffer_limit=buffer_limit,
                       spill_path=str(spill), connect_timeout=0.1,
                       backoff=faults.Backoff(base=0.01, cap=0.05,
                                              jitter=0.0))
        supervisor = _supervisor(
            queue_dir,
            [WorkerSpec(host="w0", transport=LocalTransport()),
             WorkerSpec(host="w1", transport=LocalTransport())])
        engine = CampaignEngine(backend=_backend(queue_dir, supervisor),
                                telemetry=sink)

        # The outage window: drop the listener shortly into the run and
        # bring it back on the same port while trials are still flowing.
        def outage():
            time.sleep(0.4)
            listener.stop()
            time.sleep(0.6)
            listener.port = port
            listener.start()

        chaos = threading.Thread(target=outage)
        chaos.start()
        trialsets = engine.run_grid(specs)
        chaos.join(timeout=30)
        assert not chaos.is_alive()
        time.sleep(0.3)  # let the listener ingest the tail
        received = listener.snapshot()
        listener.stop()

        assert _canonical(trialsets) == _canonical(serial)
        telemetry = engine.last_run_report["transport"]["telemetry"]
        assert telemetry["errors"] == 0
        assert telemetry["dropped"] == 0  # spill absorbed all overflow
        assert telemetry["buffered"] == 0  # close() left nothing in limbo
        # Every recorded event is accounted as sent or spilled, and of
        # the sent ones at most one socket-buffer window died unread with
        # the first listener.
        assert telemetry["sent"] + telemetry["spilled"] == telemetry["events"]
        spilled_lines = (spill.read_bytes().splitlines()
                         if spill.exists() else [])
        assert len(spilled_lines) == telemetry["spilled"]
        lost_in_flight = telemetry["sent"] - len(received)
        assert 0 <= lost_in_flight <= buffer_limit, telemetry
        # The stream includes per-trial and lifecycle events; during the
        # outage they may have landed in the spill file instead of on the
        # wire, so account across both.
        accounted = received + [decode_line(line) for line in spilled_lines]
        kinds = [event["kind"] for event in accounted]
        assert kinds.count("trial") + lost_in_flight >= 4
        assert "run_start" in kinds or lost_in_flight > 0
        assert "worker_spawn" in kinds or lost_in_flight > 0
