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


class TestProgressMonitor:
    def _monitor(self, lines=None):
        clock = iter(float(i) for i in range(100))
        return ProgressMonitor(sink=lines.append if lines is not None else None,
                               clock=lambda: next(clock))

    def test_validation(self):
        monitor = ProgressMonitor()
        with pytest.raises(ValueError):
            monitor.start(total_trials=-1)
        with pytest.raises(ValueError):
            monitor.start(total_trials=2, restored_trials=3)

    def test_counts_and_remaining(self):
        monitor = self._monitor()
        monitor.start(total_trials=4, restored_trials=1)
        assert monitor.completed_trials == 1
        assert monitor.remaining_trials == 3
        monitor.trial_completed()
        assert monitor.completed_trials == 2
        assert monitor.remaining_trials == 2

    def test_eta_uses_observed_throughput_only(self):
        # Restored trials took no wall-clock, so they must not skew the ETA.
        monitor = self._monitor()
        monitor.start(total_trials=5, restored_trials=2)
        assert monitor.eta_seconds() is None  # nothing ran yet
        monitor.trial_completed()  # one trial per clock tick
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
        monitor.start(total_trials=10, backend="serial")
        now[0] = 100.0  # a 100s journal restore
        monitor.restore_completed(8)
        assert monitor.eta_seconds() is None  # nothing ran yet
        now[0] = 101.0  # first executed trial lands one second later
        monitor.trial_completed()
        assert monitor.eta_seconds() == pytest.approx(1.0)  # 1 left at 1/s
        assert "grid: 10 trials on serial" in lines[0]
        assert "8/10 trials restored from checkpoint" in lines[1]

    def test_restore_completed_validation(self):
        monitor = self._monitor()
        monitor.start(total_trials=2)
        with pytest.raises(ValueError):
            monitor.restore_completed(3)
        with pytest.raises(ValueError):
            monitor.restore_completed(-1)

    def test_eta_zero_when_done(self):
        monitor = self._monitor()
        monitor.start(total_trials=1)
        monitor.trial_completed()
        assert monitor.eta_seconds() == 0.0

    def test_hit_rate_none_without_data(self):
        monitor = self._monitor()
        monitor.start(total_trials=1)
        # Trial metadata carries no cache counters the monitor reads.
        monitor.trial_completed(metadata={"dut_cache_hits": 3})
        assert monitor.dut_cache_hit_rate() is None
        assert "cache" not in monitor.render()

    def test_start_resets_cache_stats_between_grids(self):
        # One engine (and monitor) runs several grids back to back; each
        # grid's reported evictions must not inherit the previous grid's.
        monitor = self._monitor()
        monitor.start(total_trials=1)
        monitor.update_cache_stats({"dut_cache_evictions": 9})
        assert monitor.cache_evictions() == 9
        monitor.start(total_trials=1)
        assert monitor.cache_evictions() == 0
        assert "evicted" not in monitor.render()

    def test_sink_receives_status_lines(self):
        lines = []
        monitor = self._monitor(lines)
        monitor.start(total_trials=2, restored_trials=1, backend="serial")
        monitor.trial_completed(label="trial 1")
        assert "2 trials on serial (1 restored from checkpoint)" in lines[0]
        assert "trials 2/2" in lines[1] and "trial 1" in lines[1]

    def test_render_without_start(self):
        assert "trials 0/0" in ProgressMonitor().render()

    def test_worker_cache_stats_snapshot(self):
        monitor = self._monitor()
        monitor.start(total_trials=2)
        assert monitor.dut_cache_hit_rate() is None
        monitor.update_cache_stats({"dut_cache_hits": 3,
                                    "dut_cache_misses": 1,
                                    "dut_cache_evictions": 2,
                                    "shared_golden_evictions": 1})
        assert monitor.dut_cache_hit_rate() == pytest.approx(0.75)
        assert monitor.cache_evictions() == 3
        line = monitor.render()
        assert "dut-cache 75% hit" in line
        assert "3 evicted" in line
        # Snapshot semantics: the engine passes running totals, so a new
        # update replaces rather than accumulates.
        monitor.update_cache_stats({"dut_cache_hits": 4,
                                    "dut_cache_misses": 4})
        assert monitor.dut_cache_hit_rate() == pytest.approx(0.5)
        assert monitor.cache_evictions() == 0

    def test_evictions_count_every_bounded_cache_once(self):
        """Compiled-program spills count; the superblock counters mirror
        them and must not count twice."""
        monitor = self._monitor()
        monitor.start(total_trials=1)
        monitor.update_cache_stats({"dut_cache_evictions": 151,
                                    "shared_golden_evictions": 150,
                                    "compiled_trace_evictions": 151,
                                    "superblock_evictions": 151})
        assert monitor.cache_evictions() == 452
        assert "452 evicted" in monitor.render()

    def test_worker_cache_stats_reset_between_grids(self):
        monitor = self._monitor()
        monitor.start(total_trials=1)
        monitor.update_cache_stats({"dut_cache_hits": 5,
                                    "dut_cache_misses": 5})
        monitor.start(total_trials=1)
        assert monitor.dut_cache_hit_rate() is None
        assert "dut-cache" not in monitor.render()


@given(counts=st.lists(st.integers(0, 5), min_size=1, max_size=30),
       gamma=st.integers(1, 5))
def test_saturation_matches_trailing_window(counts, gamma):
    monitor = SaturationMonitor(gamma=gamma)
    for count in counts:
        monitor.record(3, count)
    expected = len(counts) >= gamma and all(c == 0 for c in counts[-gamma:])
    assert monitor.is_saturated(3) == expected
