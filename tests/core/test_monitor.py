"""Tests for the γ-window saturation monitor and the grid progress monitor."""

import pytest
from hypothesis import given, strategies as st

from repro.core.monitor import ProgressMonitor, SaturationMonitor


class TestSaturationMonitor:
    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            SaturationMonitor(gamma=0)

    def test_not_saturated_before_window_filled(self):
        monitor = SaturationMonitor(gamma=3)
        monitor.record(0, 0)
        monitor.record(0, 0)
        assert not monitor.is_saturated(0)

    def test_saturated_after_gamma_zero_pulls(self):
        monitor = SaturationMonitor(gamma=3)
        for _ in range(3):
            monitor.record(0, 0)
        assert monitor.is_saturated(0)

    def test_any_new_coverage_resets_streak(self):
        monitor = SaturationMonitor(gamma=3)
        monitor.record(0, 0)
        monitor.record(0, 0)
        monitor.record(0, 4)
        assert not monitor.is_saturated(0)
        monitor.record(0, 0)
        monitor.record(0, 0)
        assert not monitor.is_saturated(0)  # window is [0, 4, 0] then [4, 0, 0]
        monitor.record(0, 0)
        assert monitor.is_saturated(0)

    def test_per_arm_isolation(self):
        monitor = SaturationMonitor(gamma=2)
        monitor.record(0, 0)
        monitor.record(0, 0)
        monitor.record(1, 5)
        assert monitor.is_saturated(0)
        assert not monitor.is_saturated(1)

    def test_clear(self):
        monitor = SaturationMonitor(gamma=2)
        monitor.record(0, 0)
        monitor.record(0, 0)
        monitor.clear(0)
        assert not monitor.is_saturated(0)
        assert monitor.window(0) == []

    def test_window_contents(self):
        monitor = SaturationMonitor(gamma=3)
        for count in (5, 0, 2, 1):
            monitor.record(0, count)
        assert monitor.window(0) == [0, 2, 1]

    def test_gamma_none_disables_resets(self):
        monitor = SaturationMonitor(gamma=None)
        for _ in range(50):
            monitor.record(0, 0)
        assert not monitor.is_saturated(0)

    def test_unknown_arm_not_saturated(self):
        assert not SaturationMonitor(gamma=2).is_saturated(7)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            SaturationMonitor(gamma=2).record(0, -1)


def _report(total_trials, restored_trials=0, backend="serial", **sections):
    """A run report as the engine builds it when a grid starts."""
    return {"backend": backend, "total_trials": total_trials,
            "restored_trials": restored_trials,
            "completed_trials": restored_trials, "cache": {},
            "robustness": {}, "journal_salvage": {}, "quarantined": [],
            "quarantined_trials": 0, **sections}


def _land(monitor, report, label=""):
    """One trial lands: the engine counts it in the report, then tells
    the monitor."""
    report["completed_trials"] += 1
    monitor.trial_completed(label=label)


class TestProgressMonitor:
    def _monitor(self, lines=None):
        clock = iter(float(i) for i in range(100))
        return ProgressMonitor(sink=lines.append if lines is not None else None,
                               clock=lambda: next(clock))

    def test_counts_and_remaining(self):
        monitor = self._monitor()
        report = _report(total_trials=4, restored_trials=1)
        monitor.start(report)
        assert monitor.completed_trials == 1
        assert monitor.remaining_trials == 3
        _land(monitor, report)
        assert monitor.completed_trials == 2
        assert monitor.remaining_trials == 2

    def test_eta_uses_observed_throughput_only(self):
        # Restored trials took no wall-clock, so they must not skew the ETA.
        monitor = self._monitor()
        report = _report(total_trials=5, restored_trials=2)
        monitor.start(report)
        assert monitor.eta_seconds() is None  # nothing ran yet
        _land(monitor, report)  # one trial per clock tick
        eta = monitor.eta_seconds()
        assert eta == pytest.approx(2.0)  # 2 remaining at 1 trial/s

    def test_restore_rebases_clock_so_eta_excludes_restore_time(self):
        # Regression: on --resume the engine starts the monitor, spends a
        # while loading/salvaging the journal, then credits the restored
        # trials.  eta_seconds divides elapsed by the trials run *since*
        # restore, so elapsed must be measured from the restore boundary
        # -- it used to include the restore, inflating the first ETAs
        # after a large resume.
        now = [0.0]
        lines = []
        monitor = ProgressMonitor(sink=lines.append, clock=lambda: now[0])
        report = _report(total_trials=10)
        monitor.start(report)
        now[0] = 100.0  # a 100s journal restore
        report["restored_trials"] = report["completed_trials"] = 8
        monitor.restore_completed()
        assert monitor.eta_seconds() is None  # nothing ran yet
        now[0] = 101.0  # first executed trial lands one second later
        _land(monitor, report)
        assert monitor.eta_seconds() == pytest.approx(1.0)  # 1 left at 1/s
        assert "grid: 10 trials on serial" in lines[0]
        assert "8/10 trials restored from checkpoint" in lines[1]

    def test_eta_zero_when_done(self):
        monitor = self._monitor()
        report = _report(total_trials=1)
        monitor.start(report)
        _land(monitor, report)
        assert monitor.eta_seconds() == 0.0

    def test_hit_rate_none_without_data(self):
        monitor = self._monitor()
        monitor.start(_report(total_trials=1))
        # Trial metadata carries no cache counters the monitor reads.
        monitor.trial_completed(metadata={"dut_cache_hits": 3})
        assert monitor.dut_cache_hit_rate() is None
        assert "cache" not in monitor.render()

    def test_start_resets_cache_stats_between_grids(self):
        # One engine (and monitor) runs several grids back to back; each
        # grid's reported evictions must not inherit the previous grid's.
        monitor = self._monitor()
        monitor.start(_report(total_trials=1,
                              cache={"dut_cache_evictions": 9}))
        assert monitor.cache_evictions() == 9
        monitor.start(_report(total_trials=1))
        assert monitor.cache_evictions() == 0
        assert "evicted" not in monitor.render()

    def test_sink_receives_status_lines(self):
        lines = []
        monitor = self._monitor(lines)
        report = _report(total_trials=2, restored_trials=1)
        monitor.start(report)
        _land(monitor, report, label="trial 1")
        assert "2 trials on serial (1 restored from checkpoint)" in lines[0]
        assert "trials 2/2" in lines[1] and "trial 1" in lines[1]

    def test_render_without_start(self):
        assert "trials 0/0" in ProgressMonitor().render()

    def test_cache_report_snapshot(self):
        monitor = self._monitor()
        report = _report(total_trials=2)
        monitor.start(report)
        assert monitor.dut_cache_hit_rate() is None
        report["cache"] = {"dut_cache_hits": 3, "dut_cache_misses": 1,
                           "dut_cache_evictions": 2,
                           "shared_golden_evictions": 1}
        assert monitor.dut_cache_hit_rate() == pytest.approx(0.75)
        assert monitor.cache_evictions() == 3
        line = monitor.render()
        assert "dut-cache 75% hit" in line
        assert "3 evicted" in line
        # Snapshot semantics: the engine replaces the section with the
        # backend's running totals, so the monitor reads the latest.
        report["cache"] = {"dut_cache_hits": 4, "dut_cache_misses": 4}
        assert monitor.dut_cache_hit_rate() == pytest.approx(0.5)
        assert monitor.cache_evictions() == 0

    def test_evictions_count_every_bounded_cache_once(self):
        """Compiled-program and block-table spills both count: the block
        table is a cache of its own, not a mirror of the compiled one."""
        monitor = self._monitor()
        monitor.start(_report(total_trials=1, cache={
            "dut_cache_evictions": 151, "shared_golden_evictions": 150,
            "compiled_trace_evictions": 151, "superblock_evictions": 37}))
        assert monitor.cache_evictions() == 489
        assert "489 evicted" in monitor.render()

    def test_cache_report_reset_between_grids(self):
        monitor = self._monitor()
        monitor.start(_report(total_trials=1, cache={
            "dut_cache_hits": 5, "dut_cache_misses": 5}))
        monitor.start(_report(total_trials=1))
        assert monitor.dut_cache_hit_rate() is None
        assert "dut-cache" not in monitor.render()

    def test_recovery_counters_and_closing_line(self):
        # The backend's nonzero counters and the journal salvage tally
        # render as one set, in the status lines and the closing line.
        lines = []
        monitor = self._monitor(lines)
        report = _report(total_trials=2,
                         robustness={"requeued": 2, "retried": 0,
                                     "deadlettered": 1},
                         journal_salvage={"loaded": 3, "dropped": 1})
        monitor.start(report)
        _land(monitor, report)
        assert "requeued 2 | deadlettered 1 | journal-dropped 1" in lines[-1]
        assert "retried" not in lines[-1]
        report["quarantined_trials"] = 1
        monitor.finish()
        assert lines[-1] == ("grid recovery: deadlettered 1 | journal dropped 1"
                             " | requeued 2 | 1 trial(s) lost to deadletter/")

    def test_finish_is_quiet_on_a_clean_run(self):
        lines = []
        monitor = self._monitor(lines)
        report = _report(total_trials=1, robustness={"requeued": 0},
                         journal_salvage={"loaded": 0, "dropped": 0})
        monitor.start(report)
        _land(monitor, report)
        del lines[:]
        monitor.finish()
        assert lines == []

    def test_corpus_and_transport_closing_lines(self):
        lines = []
        monitor = self._monitor(lines)
        report = _report(
            total_trials=1, corpus={"global_points": 676, "entries": 14},
            transport={"spawned": 3, "hosts": 2, "restarts": 1,
                       "degraded_hosts": [],
                       "telemetry": {"events": 17, "reconnects": 2,
                                     "spilled": 2, "dropped": 0}})
        monitor.start(report)
        _land(monitor, report)
        assert "corpus 676pts/14 seeds" in lines[-1]
        monitor.finish()
        assert lines[-2:] == [
            "corpus: 676 points in global map, 14 seeds stored",
            "transport: 3 workers on 2 host(s) | 1 restarted | 0 degraded"
            " | telemetry 17 events/2 reconnects/2 spilled"]


@given(counts=st.lists(st.integers(0, 5), min_size=1, max_size=30),
       gamma=st.integers(1, 5))
def test_saturation_matches_trailing_window(counts, gamma):
    monitor = SaturationMonitor(gamma=gamma)
    for count in counts:
        monitor.record(3, count)
    expected = len(counts) >= gamma and all(c == 0 for c in counts[-gamma:])
    assert monitor.is_saturated(3) == expected
