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
(:mod:`repro.exec`): trials done/total, throughput-based ETA, and the
workers' cache traffic.
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
    """Live progress of a grid run: trials done/total, ETA, cache traffic.

    Cache traffic covers every per-process cache the engine's
    ``cache_entries`` bounds in a worker: DUT runs, golden runs, compiled
    programs and the superblock table (see
    :func:`repro.exec.cache.process_cache_stats`).

    The execution engine calls :meth:`start` once with the total trial
    count *before* loading any checkpoint journal, then
    :meth:`restore_completed` once the restore finishes (restored trials
    count as already done), then :meth:`trial_completed` per finished
    trial.  ``sink`` receives one rendered status line per event (e.g.
    ``print`` or a logger method); ``None`` keeps the monitor silent but
    still queryable.

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
        self.total_trials = 0
        self.completed_trials = 0
        self.restored_trials = 0
        #: worker-side cache-traffic deltas for the current grid, summed
        #: over finished batches (DUT-run, golden, compiled-program and
        #: superblock caches); fed out-of-band by the engine because these
        #: counters are kept out of result metadata on purpose.
        self.worker_cache_stats: Dict[str, int] = {}
        #: self-healing counters for the current grid: stale-lease
        #: requeues, failed-batch retries, dead-lettered batches and
        #: journal records dropped by the salvage pass.  Fed by the engine
        #: (journal side) and the backend (queue side).
        self.robustness_stats: Dict[str, int] = {}
        #: corpus-mode feedback-loop counters (global map size, stored
        #: seeds, admission traffic); fed by the engine after each trial
        #: of a corpus-enabled grid, empty otherwise.
        self.corpus_stats: Dict[str, int] = {}
        #: supervised-transport counters for the current grid (worker
        #: restarts, degraded hosts, telemetry delivery accounting); fed
        #: by the engine from ``last_run_report["transport"]``, empty for
        #: unsupervised runs (see ``docs/service.md``).
        self.transport_stats: Dict[str, object] = {}
        self._started_at: Optional[float] = None

    # ------------------------------------------------------------------ updates
    def start(self, total_trials: int, restored_trials: int = 0,
              backend: str = "serial") -> None:
        """Begin tracking a grid of ``total_trials`` trials."""
        if total_trials < 0 or restored_trials < 0:
            raise ValueError("trial counts must be non-negative")
        if restored_trials > total_trials:
            raise ValueError("restored_trials cannot exceed total_trials")
        self.total_trials = total_trials
        self.completed_trials = restored_trials
        self.restored_trials = restored_trials
        self.worker_cache_stats = {}
        self.robustness_stats = {}
        self.corpus_stats = {}
        self.transport_stats = {}
        self._started_at = self._clock()
        if self._sink is not None:
            restored = (f" ({restored_trials} restored from checkpoint)"
                        if restored_trials else "")
            self._sink(f"grid: {total_trials} trials on {backend}{restored}")

    def restore_completed(self, restored_trials: int) -> None:
        """Credit journal-restored trials and rebase the throughput clock.

        The engine calls :meth:`start` before loading the checkpoint
        journal (so the grid banner is emitted even when the restore or
        its salvage pass is slow) and this method once the restore is
        done.  Rebasing ``_started_at`` here is the whole point:
        :meth:`eta_seconds` divides elapsed wall-clock by the trials
        *run* since restore, so elapsed must not include restore time --
        a large resume used to inflate the first ETAs by exactly the
        journal-load duration.
        """
        if restored_trials < 0:
            raise ValueError("restored_trials must be non-negative")
        if restored_trials > self.total_trials:
            raise ValueError("restored_trials cannot exceed total_trials")
        self.completed_trials = restored_trials
        self.restored_trials = restored_trials
        self._started_at = self._clock()
        if self._sink is not None and restored_trials:
            self._sink(f"grid: {restored_trials}/{self.total_trials} trials "
                       f"restored from checkpoint")

    def trial_completed(self, label: str = "",
                        metadata: Optional[Dict[str, object]] = None) -> None:
        """Record one finished trial.

        ``metadata`` is the result's metadata, passed on for subclasses;
        the monitor itself reads none of it.
        """
        self.completed_trials += 1
        if self._sink is not None:
            self._sink(self.render(label))

    def update_cache_stats(self, stats: Dict[str, int]) -> None:
        """Replace the worker-side cache deltas (the engine passes the
        backend's running per-grid totals, so this is a snapshot, not an
        increment)."""
        self.worker_cache_stats = dict(stats)

    def update_robustness_stats(self, stats: Dict[str, int]) -> None:
        """Merge self-healing counters (snapshot semantics per key).

        The engine feeds two sources with disjoint keys -- the journal
        salvage tally (once, at load) and the backend's running recovery
        totals (every completion) -- so each key is replaced, not summed.
        """
        for name, value in stats.items():
            if value:
                self.robustness_stats[name] = value

    def update_corpus_stats(self, stats: Dict[str, int]) -> None:
        """Replace the corpus feedback-loop snapshot (engine-fed, corpus-on)."""
        self.corpus_stats = dict(stats)

    def update_transport_stats(self, stats: Dict[str, object]) -> None:
        """Replace the supervised-transport snapshot (engine-fed)."""
        self.transport_stats = dict(stats)

    def finish(self, report: Optional[Dict[str, object]] = None) -> None:
        """Emit closing summary lines for recovery and corpus state.

        Quiet on a clean corpus-off run; a run that requeued, retried,
        dead-lettered or salvaged anything gets one closing line so the
        damage is visible even if the per-trial status lines scrolled
        away, and a corpus-enabled run always gets one line naming the
        final global map size and seed count.  ``report`` is the engine's
        ``last_run_report`` (used to name the dead-lettered trial count).
        """
        if self._sink is None:
            return
        if self.corpus_stats:
            self._sink(f"corpus: {self.corpus_stats.get('global_points', 0)} "
                       f"points in global map, "
                       f"{self.corpus_stats.get('entries', 0)} seeds stored")
        if self.transport_stats:
            self._sink("transport: " + self._transport_line())
        quarantined = int((report or {}).get("quarantined_trials", 0) or 0)
        if not self.robustness_stats and not quarantined:
            return
        parts = [f"{name.replace('_', ' ')} {value}"
                 for name, value in sorted(self.robustness_stats.items())]
        if quarantined:
            parts.append(f"{quarantined} trial(s) lost to deadletter/")
        self._sink("grid recovery: " + " | ".join(parts))

    def _transport_line(self) -> str:
        """The closing transport summary: worker fleet, then telemetry.

        Always names the restart and degraded-host counts -- the chaos
        tests grep this line to prove a supervised recovery actually
        happened -- and appends telemetry delivery accounting when a sink
        was configured.
        """
        stats = self.transport_stats
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
        hits = self.worker_cache_stats.get("dut_cache_hits", 0)
        total = hits + self.worker_cache_stats.get("dut_cache_misses", 0)
        return hits / total if total else None

    def cache_evictions(self) -> int:
        """LRU spills in the worker caches this grid (capacity pressure
        signal): DUT runs, golden runs, compiled programs and superblocks."""
        return sum(self.worker_cache_stats.get(f"{cache}_evictions", 0)
                   for cache in ("dut_cache", "shared_golden", "compiled_trace",
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
        for counter in ("requeued", "retried", "deadlettered",
                        "journal_dropped"):
            value = self.robustness_stats.get(counter)
            if value:
                parts.append(f"{counter.replace('_', '-')} {value}")
        if self.corpus_stats:
            parts.append(f"corpus {self.corpus_stats.get('global_points', 0)}pts"
                         f"/{self.corpus_stats.get('entries', 0)} seeds")
        if label:
            parts.append(label)
        return " | ".join(parts)
