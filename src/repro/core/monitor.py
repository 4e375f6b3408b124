"""Campaign monitors: γ-window saturation and grid-run progress.

:class:`SaturationMonitor` implements the paper's arm-saturation detector
(Sec. III-C): for every arm it remembers how much new coverage each of the
last γ pulls of that arm produced.  When γ consecutive pulls produced
nothing new, the arm is declared *saturated* (depleted) and the scheduler
replaces it with a fresh seed.  γ trades depth for breadth: a large γ gives
a seed more chances to reach deep points before being abandoned, a small γ
moves on to unexplored regions sooner (footnote 1 of the paper).

:class:`ProgressMonitor` tracks the other time axis -- a whole grid of
campaigns running through the parallel execution subsystem
(:mod:`repro.exec`): trials done/total, throughput-based ETA, the
workers' cache traffic and the run's recovery, corpus and transport
state, all read from the engine's run report.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional


class SaturationMonitor:
    """Tracks per-arm new-coverage history over a sliding γ-window."""

    def __init__(self, gamma: Optional[int] = 3) -> None:
        if gamma is not None and gamma < 1:
            raise ValueError("gamma must be >= 1 (or None to disable resets)")
        self.gamma = gamma
        self._history: Dict[int, Deque[int]] = {}

    # ------------------------------------------------------------------ updates
    def record(self, arm_index: int, new_coverage_count: int) -> None:
        """Record how many new points one pull of ``arm_index`` produced."""
        if new_coverage_count < 0:
            raise ValueError("new_coverage_count must be non-negative")
        if self.gamma is None:
            return
        history = self._history.setdefault(arm_index, deque(maxlen=self.gamma))
        history.append(new_coverage_count)

    def clear(self, arm_index: int) -> None:
        """Forget the history of ``arm_index`` (called when the arm is reset)."""
        self._history.pop(arm_index, None)

    # ------------------------------------------------------------------ queries
    def is_saturated(self, arm_index: int) -> bool:
        """Whether the arm produced no new coverage in its entire γ-window."""
        if self.gamma is None:
            return False
        history = self._history.get(arm_index)
        if history is None or len(history) < self.gamma:
            return False
        return all(count == 0 for count in history)

    def window(self, arm_index: int) -> List[int]:
        """The recorded window of ``arm_index`` (most recent last)."""
        return list(self._history.get(arm_index, ()))


class ProgressMonitor:
    """Live progress of a grid run, rendered from the engine's run report.

    The engine builds its ``last_run_report`` when a grid starts, hands it
    to :meth:`start` and updates it in place as trials land (keys in
    ``docs/service.md``): trial counts, the workers' cache traffic (DUT
    runs, golden runs, compiled programs and the superblock table, see
    :func:`repro.exec.cache.process_cache_stats`), self-healing counters,
    the journal salvage tally, corpus state and transport accounting.
    The monitor keeps none of it: every status line and every closing
    line of :meth:`finish` reads that one dict.

    The engine calls :meth:`start` *before* loading any checkpoint
    journal, :meth:`restore_completed` once the restore finishes
    (restored trials count as already done), :meth:`trial_completed` per
    finished trial and :meth:`finish` once the grid is done.  ``sink``
    receives one rendered status line per event (e.g. ``print`` or a
    logger method); ``None`` keeps the monitor silent but still
    queryable.

    The ETA is throughput-based -- remaining trials divided by observed
    completed-trials-per-second -- which is the right model for a sharded
    grid where several trials finish per wall-clock interval.  Observed
    throughput starts at the *restore* boundary, not at :meth:`start`:
    journal-restore/salvage wall-clock must never be divided by only the
    trials run afterwards (see :meth:`restore_completed`).
    """

    def __init__(self, sink: Optional[Callable[[str], None]] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self._sink = sink
        self._clock = clock
        #: the current grid's report (the engine's ``last_run_report``).
        self.report: Dict[str, object] = {}
        self._started_at: Optional[float] = None

    # ------------------------------------------------------------------ updates
    def start(self, report: Dict[str, object]) -> None:
        """Begin tracking the grid that ``report`` accounts for."""
        self.report = report
        self._started_at = self._clock()
        if self._sink is not None:
            restored = (f" ({self.restored_trials} restored from checkpoint)"
                        if self.restored_trials else "")
            self._sink(f"grid: {self.total_trials} trials on "
                       f"{report.get('backend', 'serial')}{restored}")

    def restore_completed(self) -> None:
        """Rebase the throughput clock once the journal restore is done.

        The engine calls :meth:`start` before loading the checkpoint
        journal (so the grid banner is emitted even when the restore or
        its salvage pass is slow) and this method once the report counts
        the restored trials.  Rebasing ``_started_at`` here is the whole
        point: :meth:`eta_seconds` divides elapsed wall-clock by the
        trials *run* since restore, so elapsed must not include restore
        time -- a large resume used to inflate the first ETAs by exactly
        the journal-load duration.
        """
        self._started_at = self._clock()
        if self._sink is not None and self.restored_trials:
            self._sink(f"grid: {self.restored_trials}/{self.total_trials} "
                       f"trials restored from checkpoint")

    def trial_completed(self, label: str = "",
                        metadata: Optional[Dict[str, object]] = None) -> None:
        """Render the status line of one finished trial.

        The engine has already counted the trial in the report.
        ``metadata`` is the result's metadata, passed on for subclasses;
        the monitor itself reads none of it.
        """
        if self._sink is not None:
            self._sink(self.render(label))

    def finish(self) -> None:
        """Emit closing summary lines for corpus, transport and recovery.

        Quiet on a clean corpus-off run without transport accounting; a
        run that requeued, retried, dead-lettered, salvaged or lost
        anything gets one ``grid recovery:`` line so the damage is
        visible even if the per-trial status lines scrolled away, a
        corpus-enabled grid always gets one line naming the final global
        map size and seed count, and a supervised or telemetry-streaming
        run one ``transport:`` line.
        """
        if self._sink is None:
            return
        corpus = self.report.get("corpus")
        if corpus:
            self._sink(f"corpus: {corpus.get('global_points', 0)} "
                       f"points in global map, "
                       f"{corpus.get('entries', 0)} seeds stored")
        transport = self.report.get("transport")
        if transport:
            self._sink("transport: " + self._transport_line(transport))
        recovery = self._recovery()
        quarantined = int(self.report.get("quarantined_trials", 0) or 0)
        if not recovery and not quarantined:
            return
        parts = [f"{name.replace('_', ' ')} {value}"
                 for name, value in sorted(recovery.items())]
        if quarantined:
            parts.append(f"{quarantined} trial(s) lost to deadletter/")
        self._sink("grid recovery: " + " | ".join(parts))

    def _recovery(self) -> Dict[str, int]:
        """The run's nonzero self-healing counters: the backend's, plus
        ``journal_dropped`` for records the journal salvage pass dropped."""
        counters = {name: value
                    for name, value in self.report.get("robustness", {}).items()
                    if value}
        dropped = self.report.get("journal_salvage", {}).get("dropped")
        if dropped:
            counters["journal_dropped"] = dropped
        return counters

    @staticmethod
    def _transport_line(stats: Dict[str, object]) -> str:
        """The closing transport summary: worker fleet, then telemetry.

        Always names the restart and degraded-host counts -- the chaos
        tests grep this line to prove a supervised recovery actually
        happened -- and appends telemetry delivery accounting when a sink
        was configured.
        """
        parts = []
        if "hosts" in stats:
            parts.append(f"{stats.get('spawned', 0)} workers on "
                         f"{stats['hosts']} host(s)")
            parts.append(f"{stats.get('restarts', 0)} restarted")
            degraded = stats.get("degraded_hosts") or []
            parts.append(f"{len(degraded)} degraded"
                         + (f" ({', '.join(degraded)})" if degraded else ""))
        telemetry = stats.get("telemetry") or {}
        if telemetry:
            tele = [f"{telemetry.get('events', 0)} events"]
            for counter in ("reconnects", "spilled", "dropped", "errors"):
                value = telemetry.get(counter)
                if value:
                    tele.append(f"{value} {counter}")
            parts.append("telemetry " + "/".join(tele))
        return " | ".join(parts)

    # ------------------------------------------------------------------ queries
    @property
    def total_trials(self) -> int:
        return self.report.get("total_trials", 0)

    @property
    def restored_trials(self) -> int:
        return self.report.get("restored_trials", 0)

    @property
    def completed_trials(self) -> int:
        """Trials with a result, restored ones included."""
        return self.report.get("completed_trials", 0)

    @property
    def remaining_trials(self) -> int:
        return max(0, self.total_trials - self.completed_trials)

    def elapsed_seconds(self) -> float:
        if self._started_at is None:
            return 0.0
        return self._clock() - self._started_at

    def eta_seconds(self) -> Optional[float]:
        """Estimated seconds to completion (``None`` until one trial ran)."""
        ran = self.completed_trials - self.restored_trials
        if ran < 1 or self.remaining_trials == 0:
            return 0.0 if self.remaining_trials == 0 else None
        return self.remaining_trials * (self.elapsed_seconds() / ran)

    def dut_cache_hit_rate(self) -> Optional[float]:
        """Worker DUT-run cache hit rate this grid (or ``None`` before traffic)."""
        cache = self.report.get("cache", {})
        hits = cache.get("dut_cache_hits", 0)
        total = hits + cache.get("dut_cache_misses", 0)
        return hits / total if total else None

    def cache_evictions(self) -> int:
        """LRU spills in the worker caches this grid (capacity pressure
        signal): DUT runs, golden runs, compiled programs and superblocks."""
        cache = self.report.get("cache", {})
        return sum(cache.get(f"{name}_evictions", 0)
                   for name in ("dut_cache", "shared_golden", "compiled_trace",
                                "superblock"))

    def render(self, label: str = "") -> str:
        """One status line: ``trials 3/12 | eta 41s | dut-cache 87% hit``."""
        parts = [f"trials {self.completed_trials}/{self.total_trials}"]
        eta = self.eta_seconds()
        if eta is not None:
            parts.append(f"eta {eta:.0f}s")
        dut_rate = self.dut_cache_hit_rate()
        if dut_rate is not None:
            parts.append(f"dut-cache {100.0 * dut_rate:.0f}% hit")
        evictions = self.cache_evictions()
        if evictions:
            parts.append(f"{evictions} evicted")
        recovery = self._recovery()
        for counter in ("requeued", "retried", "deadlettered",
                        "journal_dropped"):
            value = recovery.get(counter)
            if value:
                parts.append(f"{counter.replace('_', '-')} {value}")
        corpus = self.report.get("corpus")
        if corpus:
            parts.append(f"corpus {corpus.get('global_points', 0)}pts"
                         f"/{corpus.get('entries', 0)} seeds")
        if label:
            parts.append(label)
        return " | ".join(parts)
