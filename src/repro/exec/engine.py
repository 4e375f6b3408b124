"""The campaign execution engine: grids in, trial sets out.

:class:`CampaignEngine` owns everything between "here is a grid of
:class:`~repro.harness.campaign.CampaignSpec`" and "here are its
:class:`~repro.harness.campaign.TrialSet` results":

* expands the grid into (spec, trial) tasks,
* drops tasks already completed in the checkpoint journal (resume) or in
  an earlier grid run through the same engine (in-memory replay),
* shards the remainder across the configured backend (which batches
  cache-compatible tasks and applies the engine's ``cache_entries`` bound
  inside every worker),
* journals each result the moment it arrives (kill-safe), and
* keeps one account of the run, ``last_run_report``, updated in place
  as trials land: the :class:`~repro.core.monitor.ProgressMonitor`
  renders every line from it and the telemetry stream's ``run_finish``
  event carries it (schema in ``docs/service.md``).

Determinism contract: trial ``i`` of a spec seeds itself from the spec
content alone (:func:`~repro.harness.campaign.trial_seed`), so the engine
guarantees bit-identical ``FuzzCampaignResult`` payloads (modulo
``elapsed_seconds``) whichever backend executes it and in whatever order
trials complete -- the property ``tests/exec/test_backends.py`` enforces.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.core.monitor import ProgressMonitor
from repro.exec.backends import ExecutionBackend, SerialBackend, TrialTask
from repro.exec.checkpoint import CheckpointJournal, TrialKey
from repro.fuzzing.results import FuzzCampaignResult
from repro.harness.campaign import CampaignSpec, TrialSet

if TYPE_CHECKING:
    from repro.telemetry.sink import TelemetrySink


class CampaignEngine:
    """Executes campaign grids on a pluggable backend with checkpoint/resume.

    (spec, trial) cells completed by an earlier :meth:`run_grid` call on
    this engine are replayed from memory instead of re-run -- trials are
    deterministic, so a re-run would be bit-identical anyway.  ``mabfuzz
    report`` runs the Table I grid and the coverage grid through one
    engine and overlaps on every shared cell.

    Attributes:
        backend: trial executor (defaults to :class:`SerialBackend`).
        checkpoint_path: JSONL journal path; ``None`` disables journaling.
        monitor: progress monitor; a silent one is created when omitted.
        cache_entries: capacity bound applied to every per-process cache
            inside every worker -- golden runs, DUT runs, compiled
            programs and the superblock table (``None`` keeps the
            default, currently 4096).  Capacity never changes results:
            no cache counter enters result metadata, and the workers'
            cache traffic reaches ``last_run_report["cache"]`` out of
            band (see ``docs/parallel.md``).
        telemetry: optional :class:`~repro.telemetry.sink.TelemetrySink`
            receiving the campaign's NDJSON event stream (per-trial
            coverage/bug data, recovery deltas, worker lifecycle and the
            closing report; schema in ``docs/service.md``).  Purely
            observational: the engine wraps it in a never-raising
            :class:`~repro.telemetry.sink.TelemetryRecorder`, so a dead
            sink can degrade the stream but never the campaign.
    """

    def __init__(self, backend: Optional[ExecutionBackend] = None,
                 checkpoint_path: Optional[str] = None,
                 monitor: Optional[ProgressMonitor] = None,
                 cache_entries: Optional[int] = None,
                 telemetry: Optional["TelemetrySink"] = None) -> None:
        # Local import: repro.telemetry imports repro.exec.faults, so a
        # module-level import here would cycle when telemetry loads first.
        from repro.telemetry.sink import TelemetryRecorder

        self.backend = backend or SerialBackend()
        self.checkpoint_path = checkpoint_path
        self.monitor = monitor or ProgressMonitor()
        if cache_entries is not None and cache_entries < 1:
            raise ValueError("cache_entries must be >= 1 or None")
        self.cache_entries = cache_entries
        self.telemetry = TelemetryRecorder(telemetry)
        self._completed: Dict[TrialKey, Dict[str, object]] = {}
        #: dispatcher-side corpus state (:class:`~repro.fuzzing.corpus.
        #: CorpusManager`) shared across ``run_grid`` calls on this
        #: engine, or ``None`` until a corpus-enabled grid runs.  Seeded
        #: from the checkpoint journal's corpus deltas on resume.
        self.corpus_state = None
        #: the account of the current (or most recent) :meth:`run_grid`:
        #: built when the grid starts and updated in place as trials
        #: land -- trial counts, the workers' cache traffic, self-healing
        #: counters, the journal salvage tally, corpus state, the trials
        #: quarantined in ``deadletter/`` (holes in the returned
        #: :class:`TrialSet`s) and transport accounting.  Keys and when
        #: each is present: ``docs/service.md``.
        self.last_run_report: Dict[str, object] = {}

    def run_grid(self, specs: Sequence[CampaignSpec]) -> List[TrialSet]:
        """Run every trial of every spec; return one TrialSet per spec, in order.

        With a checkpoint journal configured, trials recorded there are
        restored instead of re-run, and every newly finished trial is
        appended before the next one is awaited -- killing the process at
        any point loses at most the trials currently in flight.
        """
        if not specs:
            return []
        fingerprints = [spec.fingerprint() for spec in specs]
        grids: List[List[Optional[FuzzCampaignResult]]] = [
            [None] * spec.trials for spec in specs]

        # Announce the grid before touching the journal: restore/salvage
        # of a large checkpoint can take a while, and its wall-clock must
        # not leak into the monitor's observed throughput (the monitor
        # rebases its clock in ``restore_completed`` below).
        total = sum(spec.trials for spec in specs)
        report: Dict[str, object] = {
            "backend": self.backend.describe(),
            "total_trials": total, "restored_trials": 0, "completed_trials": 0,
            "cache": {}, "robustness": {}, "journal_salvage": {},
            "quarantined": [], "quarantined_trials": 0,
        }
        self.last_run_report = report
        self.monitor.start(report)
        self.telemetry.record("run_start", specs=len(specs), trials=total,
                              backend=report["backend"])

        journal = (CheckpointJournal(self.checkpoint_path)
                   if self.checkpoint_path else None)
        restored = 0
        journaled = journal.load() if journal is not None else {}
        if journal is not None:
            # Corrupt records were salvaged around and their trials simply
            # re-run below; the report surfaces the damage rather than
            # hiding a partially trusted checkpoint.
            report["journal_salvage"] = dict(journal.last_load_stats)
        for spec_index, spec in enumerate(specs):
            for trial in range(spec.trials):
                key = (fingerprints[spec_index], trial)
                result = journaled.get(key)
                if result is None:
                    payload = self._completed.get(key)
                    if payload is not None:
                        result = FuzzCampaignResult.from_dict(payload)
                        if journal is not None:
                            journal.record_trial(spec, trial, payload)
                if result is not None:
                    grids[spec_index][trial] = result
                    restored += 1

        corpus_deltas = journal.last_corpus_deltas if journal is not None else []
        corpus_active = any(spec.fuzzer_config is not None
                            and spec.fuzzer_config.corpus for spec in specs)
        if corpus_active or corpus_deltas:
            if self.corpus_state is None:
                from repro.fuzzing.corpus import CorpusManager

                self.corpus_state = CorpusManager()
            for delta in corpus_deltas:
                # Resume path: replay the journaled feedback loop (merges
                # are idempotent, so re-running a resumed grid is safe).
                self.corpus_state.merge_payload(delta)
        if corpus_active:
            report["corpus"] = self.corpus_state.stats()

        tasks = [TrialTask(spec_index, trial, spec)
                 for spec_index, spec in enumerate(specs)
                 for trial in range(spec.trials)
                 if grids[spec_index][trial] is None]
        report["restored_trials"] = report["completed_trials"] = restored
        self.monitor.restore_completed()

        # The knob is scoped to this run: a backend shared between engines
        # must not inherit another engine's bound.
        previous_cache_entries = self.backend.cache_entries
        if self.cache_entries is not None:
            self.backend.cache_entries = self.cache_entries
        # Hand the backend the engine's corpus state (it injects it into
        # corpus-enabled batches and folds every batch delta back in) and
        # journal each delta as it lands -- the feedback loop survives a
        # kill exactly like completed trials do.
        self.backend.corpus = self.corpus_state
        self.backend.on_corpus_delta = (journal.record_corpus
                                        if journal is not None else None)
        # Hand the recorder to the backend too (same injection pattern as
        # the corpus): the distributed backend forwards it to its worker
        # supervisor for lifecycle events.
        previous_telemetry = self.backend.telemetry
        if self.telemetry.enabled:
            self.backend.telemetry = self.telemetry
        recovery_seen: Dict[str, int] = {}
        try:
            if journal is not None and tasks:
                journal.record_grid(specs)
            for task, payload in self.backend.run(tasks):
                result = FuzzCampaignResult.from_dict(payload)
                grids[task.spec_index][task.trial_index] = result
                self._completed[(fingerprints[task.spec_index],
                                 task.trial_index)] = payload
                if journal is not None:
                    journal.record_trial(task.spec, task.trial_index, payload)
                report["completed_trials"] += 1
                self._refresh(report)
                self.monitor.trial_completed(
                    label=f"{task.spec.describe()} trial {task.trial_index}",
                    metadata=result.metadata)
                if self.telemetry.enabled:
                    self._record_trial_events(task, result, recovery_seen)
        finally:
            self.backend.cache_entries = previous_cache_entries
            self.backend.on_corpus_delta = None
            self.backend.telemetry = previous_telemetry
            if journal is not None:
                journal.close()

        self._refresh(report)
        quarantined = []
        for entry in getattr(self.backend, "quarantined", []):
            trials = [{"spec": fingerprints[spec_index],
                       "label": specs[spec_index].describe(),
                       "trial": trial_index}
                      for spec_index, trial_index in entry.get("tasks", [])
                      if 0 <= spec_index < len(specs)]
            quarantined.append({"task_id": entry.get("task_id"),
                                "error": entry.get("error"),
                                "reason": entry.get("reason"),
                                "attempts": entry.get("attempts"),
                                "trials": trials})
        report["quarantined"] = quarantined
        report["quarantined_trials"] = sum(len(q["trials"]) for q in quarantined)
        # The transport section exists whenever there is something to
        # account for: a worker supervisor (the backend exposes its stats
        # as ``transport_stats``) and/or a telemetry stream.  ``run_finish``
        # carries the report as it stands; the recorder is then closed --
        # final drain, remainder spilled -- *before* its stats are read,
        # so spill accounting is complete.
        supervisor_stats = getattr(self.backend, "transport_stats", None)
        if supervisor_stats is not None or self.telemetry.enabled:
            report["transport"] = dict(supervisor_stats or {})
        self.telemetry.record("run_finish", **report)
        self.telemetry.close()
        if self.telemetry.enabled:
            report["transport"]["telemetry"] = self.telemetry.stats()
        self.monitor.finish()

        for spec_index, fingerprint in enumerate(fingerprints):
            for trial, result in enumerate(grids[spec_index]):
                key = (fingerprint, trial)
                if result is not None and key not in self._completed:
                    self._completed[key] = result.to_dict()

        return [TrialSet(spec=spec, results=grids[spec_index])
                for spec_index, spec in enumerate(specs)]

    def _refresh(self, report: Dict[str, object]) -> None:
        """Copy the backend's running counters (and, on a corpus grid, the
        corpus map's) into ``report``."""
        report["cache"] = dict(self.backend.cache_stats)
        report["robustness"] = dict(self.backend.robustness_stats)
        if "corpus" in report:
            report["corpus"] = self.corpus_state.stats()

    def _record_trial_events(self, task: TrialTask,
                             result: FuzzCampaignResult,
                             recovery_seen: Dict[str, int]) -> None:
        """Emit the per-trial telemetry event, plus a recovery delta if any.

        Recovery events are *diffs* of the backend's running robustness
        counters against the last snapshot recorded, so the stream carries
        one event per self-healing incident rather than repeating totals.
        """
        self.telemetry.record(
            "trial",
            spec_index=task.spec_index, trial_index=task.trial_index,
            label=task.spec.describe(), coverage=result.coverage_count,
            total_points=result.total_points,
            bugs=sorted(result.bug_detections))
        delta = {name: value - recovery_seen.get(name, 0)
                 for name, value in self.backend.robustness_stats.items()
                 if value != recovery_seen.get(name, 0)}
        if delta:
            recovery_seen.update(self.backend.robustness_stats)
            self.telemetry.record("recovery", counters=delta)
