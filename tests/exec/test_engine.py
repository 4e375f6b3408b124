"""Tests for the campaign execution engine."""

import pytest

from repro.core.monitor import ProgressMonitor
from repro.exec.backends import SerialBackend
from repro.exec.engine import CampaignEngine
from repro.fuzzing.base import FuzzerConfig
from repro.harness.campaign import CampaignSpec

from tests.exec.helpers import CountingBackend

SMALL_CONFIG = FuzzerConfig(num_seeds=3, mutants_per_test=2)


def _spec(processor="rocket", fuzzer="thehuzz", trials=2, seed=4):
    return CampaignSpec(processor=processor, fuzzer=fuzzer, num_tests=8,
                        trials=trials, seed=seed, bugs=[],
                        fuzzer_config=SMALL_CONFIG)


class TestCampaignEngine:
    def test_empty_grid(self):
        assert CampaignEngine().run_grid([]) == []

    def test_results_keep_grid_order(self):
        specs = [_spec(processor="rocket"), _spec(processor="boom")]
        trialsets = CampaignEngine().run_grid(specs)
        assert [ts.spec.processor for ts in trialsets] == ["rocket", "boom"]
        for spec, trialset in zip(specs, trialsets):
            assert trialset.is_complete
            assert trialset.num_trials == spec.trials
            for trial, result in enumerate(trialset.results):
                assert result.metadata["trial"] == trial

    def test_monitor_sees_all_trials(self):
        lines = []
        monitor = ProgressMonitor(sink=lines.append)
        engine = CampaignEngine(monitor=monitor)
        engine.run_grid([_spec(trials=2)])
        assert monitor.completed_trials == monitor.total_trials == 2
        assert len(lines) == 3  # start + one per trial
        assert "trials 2/2" in lines[-1]


class TestRunReport:
    def test_report_accounts_for_the_run(self):
        backend = SerialBackend()
        engine = CampaignEngine(backend=backend)
        engine.run_grid([_spec(trials=2)])
        report = engine.last_run_report
        assert engine.monitor.report is report
        assert report["backend"] == "serial"
        assert (report["total_trials"], report["restored_trials"],
                report["completed_trials"]) == (2, 0, 2)
        assert report["cache"] == backend.cache_stats
        assert (report["cache"]["dut_cache_hits"]
                + report["cache"]["dut_cache_misses"]) == 16  # one per test
        assert report["quarantined_trials"] == 0
        assert "corpus" not in report and "transport" not in report

    def test_corpus_state_is_reported_only_for_a_corpus_grid(self):
        # One engine keeps its corpus map across grids, but a corpus-off
        # grid run after a corpus-on one used no corpus: its lines and
        # its report must not name one.
        lines = []
        engine = CampaignEngine(monitor=ProgressMonitor(sink=lines.append))
        corpus_spec = CampaignSpec(
            processor="rocket", fuzzer="mabfuzz:ucb", num_tests=8, trials=2,
            seed=4, bugs=[], fuzzer_config=FuzzerConfig(
                num_seeds=3, mutants_per_test=2, corpus=True))
        engine.run_grid([corpus_spec])
        assert engine.last_run_report["corpus"]["global_points"] > 0
        assert any(line.startswith("corpus: ") for line in lines)
        del lines[:]
        engine.run_grid([_spec(trials=2)])
        assert engine.corpus_state is not None  # kept for later grids
        assert "corpus" not in engine.last_run_report
        assert lines and not any("corpus" in line for line in lines)


class TestResultReuse:
    def test_overlapping_grids_run_shared_cells_once(self):
        # `mabfuzz report` runs the Table I grid and then the coverage
        # grid through one engine; shared (spec, trial) cells replay from
        # memory because trials are deterministic.
        backend = CountingBackend()
        engine = CampaignEngine(backend=backend)
        shared, extra = _spec(processor="rocket"), _spec(processor="boom")
        first = engine.run_grid([shared])
        assert len(backend.executed) == 2
        second = engine.run_grid([shared, extra])
        assert sorted(backend.executed) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert ([r.canonical_dict() for r in second[0].results]
                == [r.canonical_dict() for r in first[0].results])

    def test_reused_results_are_journaled(self, tmp_path):
        # A grid resumed from engine memory must still leave a complete
        # journal behind for the *next* process.
        engine = CampaignEngine(backend=CountingBackend())
        spec = _spec()
        engine.run_grid([spec])
        path = str(tmp_path / "grid.jsonl")
        engine.checkpoint_path = path
        engine.run_grid([spec])
        fresh_backend = CountingBackend()
        CampaignEngine(backend=fresh_backend,
                       checkpoint_path=path).run_grid([spec])
        assert fresh_backend.executed == []


class TestCacheEntriesKnob:
    def test_knob_is_scoped_to_the_run(self):
        # The bound applies while this engine's grids execute, but a
        # backend shared with another engine is restored afterwards.
        planned = []
        backend = SerialBackend()
        original_run = backend.run

        def spying_run(tasks):
            planned.append(backend.cache_entries)
            yield from original_run(tasks)

        backend.run = spying_run
        engine = CampaignEngine(backend=backend, cache_entries=123)
        engine.run_grid([_spec(trials=1)])
        assert planned == [123]
        assert backend.cache_entries is None  # restored for other engines

    def test_invalid_knob_rejected(self):
        with pytest.raises(ValueError):
            CampaignEngine(cache_entries=0)


class TestGridSummary:
    def test_summary_counts(self):
        # A serial grid completes every trial it asks for, each running
        # its whole test budget.
        (trialset,) = CampaignEngine().run_grid([_spec(trials=2)])
        assert trialset.is_complete and trialset.missing_trials() == []
        results = trialset.completed_results()
        assert len(results) == 2
        assert sum(len(r.coverage_curve) for r in results) == 16
        assert sum(r.elapsed_seconds for r in results) > 0
