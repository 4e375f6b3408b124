"""The telemetry stream of a campaign grid, counted instead of timed.

The recorder rides the trial completion path.  Its cost on that path is
pinned by what it does, not by a wall-clock bound: one event per trial
plus the run's start and finish, each trial event carrying only its
fields.  ``tests/telemetry/test_sink.py`` shows that a disabled recorder
builds no event at all.
"""

import json

from repro.core.monitor import ProgressMonitor
from repro.exec import CampaignEngine, SerialBackend
from repro.fuzzing.base import FuzzerConfig
from repro.harness.campaign import CampaignSpec
from repro.telemetry import FileSink, decode_line

TRIAL_FIELDS = {"spec_index", "trial_index", "label", "coverage",
                "total_points", "bugs"}


def _grid():
    """2 processors x 2 fuzzers x 2 trials: eight trials."""
    return [CampaignSpec(processor=processor, fuzzer=fuzzer, num_tests=6,
                         trials=2, seed=3, bugs=[],
                         fuzzer_config=FuzzerConfig(num_seeds=3,
                                                    mutants_per_test=2))
            for processor in ("cva6", "rocket")
            for fuzzer in ("thehuzz", "mabfuzz:ucb")]


def test_a_grid_emits_one_event_per_trial_plus_start_and_finish(tmp_path):
    path = tmp_path / "events.ndjson"
    engine = CampaignEngine(backend=SerialBackend(),
                            telemetry=FileSink(str(path)))
    trialsets = engine.run_grid(_grid())
    events = [decode_line(line) for line in path.read_bytes().splitlines()]
    assert [event["kind"] for event in events] == (
        ["run_start"] + ["trial"] * 8 + ["run_finish"])
    trials = events[1:-1]
    for event in trials:
        assert set(event) - {"kind", "seq", "ts"} == TRIAL_FIELDS
    coverage = {(event["spec_index"], event["trial_index"]): event["coverage"]
                for event in trials}
    assert coverage == {(spec, trial): result.coverage_count
                        for spec, trialset in enumerate(trialsets)
                        for trial, result in enumerate(trialset.results)}


def test_run_finish_carries_the_run_report(tmp_path):
    """The stream's closing event is the engine's report: a resume that
    salvaged around a damaged journal record says so in ``run_finish``,
    with the same numbers the monitor prints."""
    spec = CampaignSpec(processor="rocket", fuzzer="mabfuzz:ucb", num_tests=20,
                        trials=3, seed=3, bugs=[],
                        fuzzer_config=FuzzerConfig(num_seeds=3,
                                                   mutants_per_test=2))
    journal = tmp_path / "grid.jsonl"
    CampaignEngine(backend=SerialBackend(),
                   checkpoint_path=str(journal)).run_grid([spec])
    records = [json.loads(line) for line in journal.read_text().splitlines()]
    damaged = next(record for record in records if record["kind"] == "trial")
    damaged["result"]["num_tests"] += 1  # its checksum no longer matches
    journal.write_text("".join(json.dumps(record) + "\n" for record in records))

    events_path = tmp_path / "events.ndjson"
    lines = []
    backend = SerialBackend()
    engine = CampaignEngine(backend=backend, checkpoint_path=str(journal),
                            monitor=ProgressMonitor(sink=lines.append),
                            telemetry=FileSink(str(events_path)))
    engine.run_grid([spec])
    events = [decode_line(line) for line in events_path.read_bytes().splitlines()]
    finish = events[-1]
    assert finish["kind"] == "run_finish"
    payload = {key: value for key, value in finish.items()
               if key not in ("kind", "seq", "ts")}
    report = engine.last_run_report
    # Telemetry delivery is counted after the recorder closes, so only
    # the report has it.
    assert report["transport"].pop("telemetry")["events"] == len(events)
    assert payload == report
    assert payload["journal_salvage"]["dropped"] == 1
    assert payload["cache"] == backend.cache_stats
    assert (payload["restored_trials"], payload["completed_trials"]) == (2, 3)
    assert lines[-1] == "grid recovery: journal dropped 1"
