"""Tests for the JSONL checkpoint journal and grid resume."""

import json
import multiprocessing

import pytest

from repro.core.monitor import ProgressMonitor
from repro.exec.backends import SerialBackend
from repro.exec.checkpoint import CheckpointJournal, record_checksum
from repro.exec.engine import CampaignEngine
from repro.fuzzing.base import FuzzerConfig
from repro.fuzzing.results import FuzzCampaignResult
from repro.harness.campaign import CampaignSpec

from tests.exec.helpers import CountingBackend


def _spec(trials=3):
    return CampaignSpec(processor="rocket", fuzzer="thehuzz", num_tests=8,
                        trials=trials, seed=7, bugs=[],
                        fuzzer_config=FuzzerConfig(num_seeds=3, mutants_per_test=2))


class TestJournal:
    def test_missing_file_is_empty(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path / "nothing.jsonl"))
        assert journal.load() == {}

    def test_trial_round_trip(self, tmp_path):
        spec = _spec()
        result = FuzzCampaignResult(fuzzer_name="thehuzz", dut_name="rocket",
                                    num_tests=8, coverage_count=3,
                                    metadata={"trial": 0, "seed": 42})
        path = str(tmp_path / "journal.jsonl")
        with CheckpointJournal(path) as journal:
            journal.record_grid([spec])
            journal.record_trial(spec, 0, result)
        loaded = CheckpointJournal(path).load()
        assert loaded[(spec.fingerprint(), 0)].canonical_dict() == result.canonical_dict()

    def test_trial_accepts_preserialized_payload(self, tmp_path):
        # The engine journals the backend's payload dict directly (no
        # second to_dict pass); both forms must load identically.
        spec = _spec()
        result = FuzzCampaignResult(fuzzer_name="thehuzz", dut_name="rocket",
                                    num_tests=8, coverage_count=2)
        path = str(tmp_path / "journal.jsonl")
        with CheckpointJournal(path) as journal:
            journal.record_trial(spec, 0, result)
            journal.record_trial(spec, 1, result.to_dict())
        loaded = CheckpointJournal(path).load()
        assert (loaded[(spec.fingerprint(), 0)].canonical_dict()
                == loaded[(spec.fingerprint(), 1)].canonical_dict())

    def test_torn_tail_line_is_skipped(self, tmp_path):
        spec = _spec()
        result = FuzzCampaignResult(fuzzer_name="thehuzz", dut_name="rocket",
                                    num_tests=8)
        path = str(tmp_path / "journal.jsonl")
        with CheckpointJournal(path) as journal:
            journal.record_trial(spec, 0, result)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "trial", "spec": "dead')  # kill mid-append
        assert set(CheckpointJournal(path).load()) == {(spec.fingerprint(), 0)}

    def test_unknown_kinds_ignored(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text(json.dumps({"kind": "future-extension"}) + "\n")
        assert CheckpointJournal(str(path)).load() == {}

    def test_incompatible_journal_version_rejected(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text(json.dumps({"kind": "grid", "version": 99,
                                    "specs": []}) + "\n")
        with pytest.raises(ValueError, match="version 99"):
            CheckpointJournal(str(path)).load()


def _append_trials(path: str, start: int, count: int) -> None:
    """Worker for the concurrent-writer test (module-level: picklable)."""
    spec = _spec()
    result = FuzzCampaignResult(fuzzer_name="thehuzz", dut_name="rocket",
                                num_tests=8, coverage_count=1)
    with CheckpointJournal(path) as journal:
        for trial in range(start, start + count):
            journal.record_trial(spec, trial, result)


class TestConcurrentWriters:
    def test_two_processes_appending_never_tear_records(self, tmp_path):
        # Two distributed dispatchers may share one journal; every record
        # is a single O_APPEND write, so lines interleave whole.  Repeat a
        # few times to give interleaving a real chance to happen.
        path = str(tmp_path / "journal.jsonl")
        count = 40
        context = multiprocessing.get_context("fork")
        writers = [context.Process(target=_append_trials,
                                   args=(path, side * count, count))
                   for side in range(2)]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=60)
            assert writer.exitcode == 0
        loaded = CheckpointJournal(path).load()
        fingerprint = _spec().fingerprint()
        assert set(loaded) == {(fingerprint, trial)
                               for trial in range(2 * count)}
        # Every line in the file is whole (parses on its own).
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                json.loads(line)

    def test_concurrent_journal_tolerates_a_torn_tail_too(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        _append_trials(path, 0, 3)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "trial", "spec": "half')  # killed mid-append
        _append_trials(path, 3, 2)  # a second writer appends after the tear
        loaded = CheckpointJournal(path).load()
        fingerprint = _spec().fingerprint()
        # The torn line is skipped, and it also swallows the next record
        # glued onto it (trial 3) -- an accepted loss: that trial simply
        # re-runs on resume.  Everything else survives.
        assert set(loaded) == {(fingerprint, trial) for trial in (0, 1, 2, 4)}


class TestResume:
    def test_interrupted_grid_resumes_without_rerunning(self, tmp_path):
        spec = _spec(trials=3)
        path = str(tmp_path / "grid.jsonl")
        reference = CampaignEngine(backend=SerialBackend(),
                                   checkpoint_path=path).run_grid([spec])[0]

        # Simulate a kill after two completed trials: keep header + 2 lines.
        lines = open(path).read().splitlines(True)
        with open(path, "w") as handle:
            handle.writelines(lines[:3])

        backend = CountingBackend()
        monitor = ProgressMonitor()
        resumed = CampaignEngine(backend=backend, checkpoint_path=path,
                                 monitor=monitor).run_grid([spec])[0]
        assert backend.executed == [(0, 2)]  # only the lost trial re-ran
        assert monitor.restored_trials == 2
        assert resumed.is_complete
        assert ([r.canonical_dict() for r in resumed.results]
                == [r.canonical_dict() for r in reference.results])

    def test_changed_spec_does_not_match_old_trials(self, tmp_path):
        path = str(tmp_path / "grid.jsonl")
        CampaignEngine(checkpoint_path=path).run_grid([_spec(trials=1)])
        changed = CampaignSpec(processor="rocket", fuzzer="thehuzz",
                               num_tests=9, trials=1, seed=7, bugs=[],
                               fuzzer_config=FuzzerConfig(num_seeds=3,
                                                          mutants_per_test=2))
        backend = CountingBackend()
        CampaignEngine(backend=backend, checkpoint_path=path).run_grid([changed])
        assert backend.executed == [(0, 0)]  # fingerprint mismatch -> re-run

    def test_extending_trial_count_reuses_journaled_trials(self, tmp_path):
        path = str(tmp_path / "grid.jsonl")
        CampaignEngine(checkpoint_path=path).run_grid([_spec(trials=2)])
        backend = CountingBackend()
        extended = CampaignEngine(backend=backend,
                                  checkpoint_path=path).run_grid(
                                      [_spec(trials=3)])[0]
        assert backend.executed == [(0, 2)]  # only the new trial runs
        assert extended.is_complete

    def test_completed_grid_runs_nothing(self, tmp_path):
        spec = _spec(trials=2)
        path = str(tmp_path / "grid.jsonl")
        CampaignEngine(checkpoint_path=path).run_grid([spec])
        backend = CountingBackend()
        trialset = CampaignEngine(backend=backend,
                                  checkpoint_path=path).run_grid([spec])[0]
        assert backend.executed == []
        assert trialset.num_trials == 2


class TestChecksumSalvage:
    def _write_journal(self, path, trials=3):
        spec = _spec()
        result = FuzzCampaignResult(fuzzer_name="thehuzz", dut_name="rocket",
                                    num_tests=8, coverage_count=1)
        with CheckpointJournal(path) as journal:
            for trial in range(trials):
                journal.record_trial(spec, trial, result)
        return spec

    def test_records_carry_checksums(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        self._write_journal(path, trials=1)
        with open(path, encoding="utf-8") as handle:
            record = json.loads(handle.readline())
        assert record["check"] == record_checksum(record)

    def test_corrupt_interior_record_is_dropped_and_counted(self, tmp_path):
        # The nasty case: the record still parses as JSON, but its content
        # silently changed -- only the checksum can catch it.
        path = str(tmp_path / "journal.jsonl")
        spec = self._write_journal(path, trials=3)
        lines = open(path, encoding="utf-8").read().splitlines()
        middle = json.loads(lines[1])
        middle["trial"] = 99  # flipped after the checksum was computed
        lines[1] = json.dumps(middle, sort_keys=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        journal = CheckpointJournal(path)
        loaded = journal.load()
        assert set(loaded) == {(spec.fingerprint(), t) for t in (0, 2)}
        assert journal.last_load_stats == {
            "loaded": 2, "dropped": 1, "dropped_undecodable": 0,
            "dropped_checksum": 1, "dropped_malformed": 0}

    def test_undecodable_interior_record_is_dropped_and_counted(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        spec = self._write_journal(path, trials=3)
        lines = open(path, encoding="utf-8").read().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]  # torn interior record
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        journal = CheckpointJournal(path)
        loaded = journal.load()
        assert set(loaded) == {(spec.fingerprint(), t) for t in (0, 2)}
        assert journal.last_load_stats["dropped_undecodable"] == 1

    def test_legacy_records_without_checksum_still_load(self, tmp_path):
        spec = _spec()
        result = FuzzCampaignResult(fuzzer_name="thehuzz", dut_name="rocket",
                                    num_tests=8)
        path = tmp_path / "journal.jsonl"
        path.write_text(json.dumps({"kind": "trial",
                                    "spec": spec.fingerprint(), "trial": 0,
                                    "result": result.to_dict()}) + "\n")
        journal = CheckpointJournal(str(path))
        assert set(journal.load()) == {(spec.fingerprint(), 0)}
        assert journal.last_load_stats == {
            "loaded": 1, "dropped": 0, "dropped_undecodable": 0,
            "dropped_checksum": 0, "dropped_malformed": 0}

    def test_malformed_trial_record_is_dropped_and_counted(self, tmp_path):
        record = {"kind": "trial", "spec": "s", "trial": "not-an-int"}
        record["check"] = record_checksum(record)
        path = tmp_path / "journal.jsonl"
        path.write_text(json.dumps(record, sort_keys=True) + "\n")
        journal = CheckpointJournal(str(path))
        assert journal.load() == {}
        assert journal.last_load_stats["dropped_malformed"] == 1

    @pytest.mark.parametrize("field, value", [
        ("trial", 1.9), ("trial", True), ("trial", -1), ("trial", "1"),
        ("spec", 5), ("spec", None)])
    def test_trial_key_fields_are_checked_not_coerced(self, tmp_path, field, value):
        # Checksummed, so only the key check can refuse them: before it, a
        # trial 1.9 or true restored as trial 1 and a spec 5 as '5'.
        path = tmp_path / "journal.jsonl"
        spec = self._write_journal(str(path), trials=2)
        lines = path.read_text(encoding="utf-8").splitlines()
        damaged = json.loads(lines[1])
        damaged[field] = value
        damaged["check"] = record_checksum(damaged)
        lines[1] = json.dumps(damaged, sort_keys=True)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        journal = CheckpointJournal(str(path))
        assert set(journal.load()) == {(spec.fingerprint(), 0)}
        assert journal.last_load_stats == {
            "loaded": 1, "dropped": 1, "dropped_undecodable": 0,
            "dropped_checksum": 0, "dropped_malformed": 1}

    def test_engine_reruns_trials_lost_to_corruption(self, tmp_path):
        # End-to-end: a corrupted journal record re-runs its trial on
        # resume and the damage count surfaces in the engine's report.
        spec = _spec(trials=3)
        path = str(tmp_path / "grid.jsonl")
        reference = CampaignEngine(backend=SerialBackend(),
                                   checkpoint_path=path).run_grid([spec])[0]
        lines = open(path, encoding="utf-8").read().splitlines()
        damaged = json.loads(lines[2])
        damaged["trial"] = 77  # breaks the checksum
        lines[2] = json.dumps(damaged, sort_keys=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        backend = CountingBackend()
        engine = CampaignEngine(backend=backend, checkpoint_path=path)
        resumed = engine.run_grid([spec])[0]
        assert len(backend.executed) == 1  # exactly the damaged trial
        assert resumed.is_complete
        assert ([r.canonical_dict() for r in resumed.results]
                == [r.canonical_dict() for r in reference.results])
        assert engine.last_run_report["journal_salvage"]["dropped"] == 1

    def test_engine_reruns_a_trial_whose_result_breaks_the_wire_format(self, tmp_path):
        # A record whose checksum holds but whose result breaks the
        # declaration (num_tests 12.9) is dropped as malformed, never
        # restored as a coerced value, and its trial re-runs.
        spec = _spec(trials=3)
        path = str(tmp_path / "grid.jsonl")
        reference = CampaignEngine(backend=SerialBackend(),
                                   checkpoint_path=path).run_grid([spec])[0]
        lines = open(path, encoding="utf-8").read().splitlines()
        damaged = json.loads(lines[2])
        damaged["result"]["num_tests"] = 12.9
        damaged["check"] = record_checksum(damaged)
        lines[2] = json.dumps(damaged, sort_keys=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        backend = CountingBackend()
        engine = CampaignEngine(backend=backend, checkpoint_path=path)
        resumed = engine.run_grid([spec])[0]
        assert backend.executed == [(0, damaged["trial"])]
        assert ([r.canonical_dict() for r in resumed.results]
                == [r.canonical_dict() for r in reference.results])
        salvage = engine.last_run_report["journal_salvage"]
        assert salvage["dropped_malformed"] == salvage["dropped"] == 1
