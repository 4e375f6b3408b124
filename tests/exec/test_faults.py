"""Tests for the deterministic fault-injection layer itself."""

import json

import pytest

from repro.exec import faults
from repro.exec.faults import Backoff, FaultInjector, FaultPlan, FaultRule


@pytest.fixture(autouse=True)
def _no_leaked_injector():
    yield
    faults.uninstall()


class TestFaultRule:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultRule(site="no.such.site", action="kill")

    def test_action_must_match_site(self):
        with pytest.raises(ValueError, match="does not support"):
            FaultRule(site=faults.SITE_JOURNAL_APPEND, action="kill")

    def test_round_trip(self):
        rule = FaultRule(site=faults.SITE_WORKER_BATCH, action="delay",
                         after=2, times=3, arg=0.5,
                         match=(("task_id", "run-000001"),))
        assert FaultRule.from_dict(rule.to_dict()) == rule

    def test_beacon_round_trip(self):
        rule = FaultRule(site=faults.SITE_WORKER_POLL, action="defer",
                         times=0, arg=2, beacon="/spool/deaths")
        assert FaultRule.from_dict(rule.to_dict()) == rule

    def test_defer_needs_a_beacon(self):
        with pytest.raises(ValueError, match="beacon"):
            FaultRule(site=faults.SITE_WORKER_POLL, action="defer")

    @pytest.mark.parametrize("name, value", [
        ("after", 1.9), ("times", True), ("arg", "2"), ("time", 3),
        ("match", ["kind", "trial"]), ("beacon", 5)])
    def test_wire_fields_are_checked_not_coerced(self, name, value):
        # Plans are written by hand: a typo'd key or a wrong type fails,
        # naming it, instead of loading as a different schedule.
        with pytest.raises(ValueError, match=name):
            FaultRule.from_dict({"site": "worker.batch", "action": "delay",
                                 name: value})


class TestFaultPlan:
    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan(rules=(
            FaultRule(site=faults.SITE_QUEUE_PUBLISH, action="torn"),
            FaultRule(site=faults.SITE_WORKER_TRIAL, action="kill", after=4),
        ), seed=9)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_dict()))
        assert FaultPlan.from_file(str(path)) == plan

    def test_unsupported_version_rejected(self):
        with pytest.raises(ValueError, match="version 99"):
            FaultPlan.from_dict({"version": 99, "rules": []})

    @pytest.mark.parametrize("data, name", [
        ({"seed": 3.9}, "seed"), ({"rules": {}}, "rules"),
        ({"rules": [{"site": "worker.batch"}]}, r"rules\[0\]\.action"),
        ({"rules": [{"site": "worker.batch", "action": "torn"}]}, r"rules\[0\]"),
        ([{"site": "worker.batch", "action": "kill"}], "FaultPlan")])
    def test_wire_fields_are_checked_not_coerced(self, data, name):
        with pytest.raises(ValueError, match=name):
            FaultPlan.from_dict(data)


class TestInjector:
    def test_after_and_times_window(self):
        plan = FaultPlan(rules=(FaultRule(site=faults.SITE_WORKER_BATCH,
                                          action="delay", after=2, times=2),))
        injector = FaultInjector(plan)
        fired = [bool(injector.fire(faults.SITE_WORKER_BATCH))
                 for _ in range(6)]
        assert fired == [False, False, True, True, False, False]

    def test_times_zero_fires_forever_once_armed(self):
        plan = FaultPlan(rules=(FaultRule(site=faults.SITE_WORKER_BATCH,
                                          action="delay", after=1, times=0),))
        injector = FaultInjector(plan)
        fired = [bool(injector.fire(faults.SITE_WORKER_BATCH))
                 for _ in range(4)]
        assert fired == [False, True, True, True]

    def test_match_filters_context(self):
        plan = FaultPlan(rules=(FaultRule(
            site=faults.SITE_WORKER_BATCH, action="delay",
            match=(("task_id", "run-000002"),)),))
        injector = FaultInjector(plan)
        assert not injector.fire(faults.SITE_WORKER_BATCH,
                                 task_id="run-000001")
        assert injector.fire(faults.SITE_WORKER_BATCH, task_id="run-000002")
        # Non-matching hits do not advance the rule's counter.
        assert injector.fired_log == [
            (faults.SITE_WORKER_BATCH, "delay", {"task_id": "run-000002"})]

    def test_deterministic_across_instances(self):
        plan = FaultPlan(rules=(FaultRule(site=faults.SITE_QUEUE_CLAIM,
                                          action="backdate", after=3),))
        sequence = [bool(FaultInjector(plan).fire(faults.SITE_QUEUE_CLAIM))
                    for _ in range(1)]
        for _ in range(3):
            injector = FaultInjector(plan)
            replay = [bool(injector.fire(faults.SITE_QUEUE_CLAIM))
                      for _ in range(1)]
            assert replay == sequence

    def test_global_hook_is_noop_until_installed(self):
        assert faults.fire(faults.SITE_WORKER_BATCH) == ()
        plan = FaultPlan(rules=(FaultRule(site=faults.SITE_WORKER_BATCH,
                                          action="delay"),))
        faults.install(plan.injector())
        assert faults.fire(faults.SITE_WORKER_BATCH)
        faults.uninstall()
        assert faults.fire(faults.SITE_WORKER_BATCH) == ()

    def test_install_from_env(self, tmp_path, monkeypatch):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(FaultPlan().to_dict()))
        monkeypatch.delenv(faults.FAULT_PLAN_ENV, raising=False)
        assert faults.install_from_env() is None
        monkeypatch.setenv(faults.FAULT_PLAN_ENV, str(path))
        assert faults.install_from_env() is not None
        assert faults.installed() is not None

    def test_oserror_action_raises_injected_error(self):
        rule = FaultRule(site=faults.SITE_QUEUE_PUBLISH, action="oserror")
        with pytest.raises(faults.InjectedError):
            faults.perform(rule)
        assert issubclass(faults.InjectedError, OSError)


class TestBeacons:
    """Beacons carry fired faults across processes to ``defer`` rules."""

    def test_firing_rule_marks_its_beacon(self, tmp_path):
        beacon = str(tmp_path / "beacon")
        injector = FaultInjector(FaultPlan(rules=(FaultRule(
            site=faults.SITE_WORKER_BATCH, action="delay", times=2,
            beacon=beacon),)))
        assert faults.beacon_marks(beacon) == 0
        for _ in range(3):
            injector.fire(faults.SITE_WORKER_BATCH)
        assert faults.beacon_marks(beacon) == 2  # one mark per firing

    def test_defer_fires_until_the_beacon_holds_arg_marks(self, tmp_path):
        beacon = str(tmp_path / "beacon")
        waiter = FaultInjector(FaultPlan(rules=(FaultRule(
            site=faults.SITE_WORKER_POLL, action="defer", times=0, arg=2,
            beacon=beacon),)))
        marker = FaultInjector(FaultPlan(rules=(FaultRule(
            site=faults.SITE_WORKER_BATCH, action="delay", times=0,
            beacon=beacon),)))
        released = []
        for _ in range(3):
            released.append(not waiter.fire(faults.SITE_WORKER_POLL))
            marker.fire(faults.SITE_WORKER_BATCH)
        assert released == [False, False, True]
        # Reading the beacon never marks it.
        assert faults.beacon_marks(beacon) == 3


class TestServiceSites:
    """The transport/telemetry sites ride the same plan machinery."""

    SITES = {
        faults.SITE_TRANSPORT_SPAWN: ("oserror", "delay"),
        faults.SITE_TRANSPORT_PROBE: ("down", "delay"),
        faults.SITE_SINK_CONNECT: ("oserror", "delay"),
        faults.SITE_SINK_WRITE: ("oserror", "delay"),
    }

    def test_actions_registered_per_site(self):
        for site, actions in self.SITES.items():
            for action in actions:
                FaultRule(site=site, action=action)  # does not raise
            with pytest.raises(ValueError, match="does not support"):
                FaultRule(site=site, action="torn")
        # ``down`` stays exclusive to the probe site.
        with pytest.raises(ValueError, match="does not support"):
            FaultRule(site=faults.SITE_TRANSPORT_SPAWN,
                      action=faults.ACTION_DOWN)

    def test_plan_serialization_round_trip_with_windows(self, tmp_path):
        plan = FaultPlan(rules=(
            FaultRule(site=faults.SITE_TRANSPORT_SPAWN, action="oserror",
                      after=1, times=2),
            FaultRule(site=faults.SITE_TRANSPORT_PROBE, action="down",
                      times=1, match=(("host", "node7"),)),
            FaultRule(site=faults.SITE_SINK_CONNECT, action="delay",
                      arg=0.25, after=3),
            FaultRule(site=faults.SITE_SINK_WRITE, action="oserror",
                      match=(("sink", "tcp"),)),
        ), seed=7)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_dict()))
        restored = FaultPlan.from_file(str(path))
        assert restored == plan
        assert [rule.site for rule in restored.rules] == [
            faults.SITE_TRANSPORT_SPAWN, faults.SITE_TRANSPORT_PROBE,
            faults.SITE_SINK_CONNECT, faults.SITE_SINK_WRITE]

    def test_after_times_window_applies_at_new_sites(self):
        plan = FaultPlan(rules=(FaultRule(
            site=faults.SITE_SINK_CONNECT, action="oserror",
            after=1, times=2),))
        injector = FaultInjector(plan)
        fired = [bool(injector.fire(faults.SITE_SINK_CONNECT))
                 for _ in range(5)]
        assert fired == [False, True, True, False, False]

    def test_context_match_filters_hosts_and_sinks(self):
        plan = FaultPlan(rules=(
            FaultRule(site=faults.SITE_TRANSPORT_PROBE, action="down",
                      times=0, match=(("host", "node7"),)),
            FaultRule(site=faults.SITE_SINK_WRITE, action="oserror",
                      times=0, match=(("sink", "tcp"),)),
        ))
        injector = FaultInjector(plan)
        assert not injector.fire(faults.SITE_TRANSPORT_PROBE, host="node1")
        assert injector.fire(faults.SITE_TRANSPORT_PROBE, host="node7")
        # A file sink's writes never match a tcp-scoped rule.
        assert not injector.fire(faults.SITE_SINK_WRITE, sink="file")
        assert injector.fire(faults.SITE_SINK_WRITE, sink="tcp")

    def test_sites_are_independent(self):
        plan = FaultPlan(rules=(FaultRule(
            site=faults.SITE_SINK_WRITE, action="oserror", times=1),))
        injector = FaultInjector(plan)
        assert not injector.fire(faults.SITE_SINK_CONNECT)
        assert not injector.fire(faults.SITE_TRANSPORT_SPAWN)
        assert injector.fire(faults.SITE_SINK_WRITE)


class TestCorruptBytes:
    def test_torn_keeps_a_strict_prefix(self):
        data = b'{"kind": "trial", "result": {"coverage": 12}}\n'
        torn = faults.corrupt_bytes(
            data, FaultRule(site=faults.SITE_JOURNAL_APPEND, action="torn"))
        assert torn == data[: len(data) // 2]

    def test_corrupt_damages_interior_but_keeps_length_and_newline(self):
        data = b'{"kind": "trial", "result": {"coverage": 12}}\n'
        bad = faults.corrupt_bytes(
            data, FaultRule(site=faults.SITE_JOURNAL_APPEND, action="corrupt"))
        assert bad != data
        assert len(bad) == len(data)
        assert bad.endswith(b"\n")


class TestBackoff:
    def test_grows_exponentially_to_cap(self):
        backoff = Backoff(base=1.0, cap=4.0, factor=2.0, jitter=0.0)
        assert [backoff.next() for _ in range(4)] == [1.0, 2.0, 4.0, 4.0]

    def test_reset_returns_to_base(self):
        backoff = Backoff(base=1.0, jitter=0.0)
        backoff.next()
        backoff.next()
        backoff.reset()
        assert backoff.next() == 1.0

    def test_attempt_tracks_schedule_position(self):
        """Regression for the reset-on-success contract: a long-lived
        per-site instance must decay back to base once an outage clears,
        not keep paying the escalated delay forever."""
        backoff = Backoff(base=1.0, factor=2.0, jitter=0.0)
        assert backoff.attempt == 0
        delays = [backoff.next() for _ in range(3)]
        assert delays == [1.0, 2.0, 4.0]
        assert backoff.attempt == 3
        backoff.reset()  # the success path every caller must hit
        assert backoff.attempt == 0
        assert backoff.next() == 1.0  # not 8.0: the outage is over

    def test_default_cap_is_sixteen_times_base(self):
        backoff = Backoff(base=0.25, jitter=0.0)
        assert max(backoff.next() for _ in range(10)) == 4.0

    def test_jitter_is_bounded_and_seed_deterministic(self):
        delays = [Backoff(base=1.0, jitter=0.25, seed=11).next()
                  for _ in range(3)]
        assert len(set(delays)) == 1  # same seed, same schedule
        assert 0.75 <= delays[0] <= 1.25
        other = Backoff(base=1.0, jitter=0.25, seed=12).next()
        assert other != delays[0]

    def test_stable_seed_is_stable(self):
        assert faults.stable_seed("w0") == faults.stable_seed("w0")
        assert faults.stable_seed("w0") != faults.stable_seed("w1")

    def test_validation(self):
        with pytest.raises(ValueError):
            Backoff(base=0.0)
        with pytest.raises(ValueError):
            Backoff(base=1.0, factor=0.5)
        with pytest.raises(ValueError):
            Backoff(base=1.0, jitter=1.0)
