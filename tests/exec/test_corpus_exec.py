"""Corpus mode through the execution subsystem: determinism, the
coverage-at-equal-budget property, cross-worker aggregation and resume.

The corpus relaxes the serial==pool==distributed bit-identity contract
(only for corpus-ON runs -- corpus-off stays fully covered by
``test_backends.py``/``test_distributed.py``), so the invariants enforced
here are the ones ``docs/corpus.md`` promises instead:

* corpus-on **serial** runs are reproducible end to end;
* the engine's corpus state equals a hand-threaded mirror of the same
  trials (no state leaks, no double merges);
* at an equal trial budget, a corpus-on MABFuzz grid reaches strictly
  more union coverage than corpus-off (the point of the subsystem);
* a 2-worker distributed corpus run converges: every worker's parting
  snapshot is identical to the dispatcher's global map; and
* the checkpoint journal restores the feedback loop on resume.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.api import make_fuzzer, make_processor
from repro.exec import CampaignEngine, DistributedBackend, SerialBackend, SpoolQueue
from repro.exec.checkpoint import CheckpointJournal
from repro.fuzzing.base import FuzzerConfig
from repro.fuzzing.corpus import CorpusManager
from repro.harness.campaign import CampaignSpec, trial_seed
from repro.isa.program import program_id_scope

SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")
CORPUS_CONFIG = FuzzerConfig(num_seeds=3, mutants_per_test=2, corpus=True)
OFF_CONFIG = FuzzerConfig(num_seeds=3, mutants_per_test=2)


def _spec(corpus=True, trials=2, num_tests=8, seed=17, fuzzer="mabfuzz:ucb"):
    return CampaignSpec(processor="rocket", fuzzer=fuzzer, num_tests=num_tests,
                        trials=trials, seed=seed, bugs=[],
                        fuzzer_config=CORPUS_CONFIG if corpus else OFF_CONFIG)


def _canonical(trialsets):
    return [[r.canonical_dict() for r in ts.results] for ts in trialsets]


def _threaded_union(spec):
    """Hand-threaded mirror of a serial corpus grid: run each trial with
    the accumulated state, fold its payload back, return the union of the
    trials' covered point sets (plus the final corpus state)."""
    state = CorpusManager()
    union = set()
    for trial in range(spec.trials):
        seed = trial_seed(spec, trial)
        with program_id_scope():
            dut = make_processor(spec.processor, bugs=spec.bugs,
                                 coverage_model=spec.coverage_model)
            fuzzer = make_fuzzer(spec.fuzzer, dut,
                                 fuzzer_config=spec.fuzzer_config,
                                 mab_config=spec.mab_config, rng=seed)
            if fuzzer.corpus is not None:
                fuzzer.corpus.merge_payload(state.to_payload())
                fuzzer.on_corpus_state()
            fuzzer.run(spec.num_tests)
            union |= set(fuzzer.session.coverage_db.covered)
            if fuzzer.corpus is not None:
                state.merge_payload(fuzzer.corpus.to_payload())
    return union, state


class TestSerialDeterminism:
    def test_corpus_on_serial_runs_are_reproducible(self):
        spec = _spec()
        first = CampaignEngine(backend=SerialBackend())
        second = CampaignEngine(backend=SerialBackend())
        results_a = first.run_grid([spec])
        results_b = second.run_grid([spec])
        assert _canonical(results_a) == _canonical(results_b)
        assert (first.corpus_state.coverage_points()
                == second.corpus_state.coverage_points())
        assert set(first.corpus_state.entries) == set(second.corpus_state.entries)

    def test_engine_state_matches_hand_threaded_mirror(self):
        spec = _spec()
        engine = CampaignEngine(backend=SerialBackend())
        engine.run_grid([spec])
        union, state = _threaded_union(spec)
        assert engine.corpus_state.coverage_points() == frozenset(union)
        assert engine.corpus_state.coverage_points() == state.coverage_points()

    def test_corpus_counters_reach_result_metadata(self):
        spec = _spec(trials=1)
        (trialset,) = CampaignEngine(backend=SerialBackend()).run_grid([spec])
        metadata = trialset.results[0].metadata
        assert metadata["corpus_admitted"] > 0
        assert metadata["corpus_global_points"] > 0
        assert "corpus_seeded" in metadata and "corpus_fresh" in metadata

    def test_corpus_off_results_carry_no_corpus_metadata(self):
        spec = _spec(corpus=False, trials=1)
        engine = CampaignEngine(backend=SerialBackend())
        (trialset,) = engine.run_grid([spec])
        assert "corpus_admitted" not in trialset.results[0].metadata
        assert engine.corpus_state is None


class TestCoverageAtEqualBudget:
    def test_corpus_on_beats_corpus_off_union_coverage(self):
        # The acceptance property of the subsystem (docs/corpus.md): at a
        # fixed trial budget, a corpus-on MABFuzz grid reaches strictly
        # more distinct coverage points than the same corpus-off grid.
        # Seeded: the budget (3 trials x 80 tests) is past the break-even
        # point where cross-trial feedback pays for the lost diversity.
        budget = dict(trials=3, num_tests=80, seed=7)
        union_off, _ = _threaded_union(_spec(corpus=False, **budget))
        union_on, state = _threaded_union(_spec(corpus=True, **budget))
        assert len(union_on) > len(union_off)
        # The corpus map is exactly the union of the trials' coverage.
        assert state.coverage_points() == frozenset(union_on)


class TestResume:
    def test_journal_records_and_full_restore(self, tmp_path):
        journal_path = str(tmp_path / "grid.jsonl")
        spec = _spec()
        engine = CampaignEngine(backend=SerialBackend(),
                                checkpoint_path=journal_path)
        original = engine.run_grid([spec])

        journal = CheckpointJournal(journal_path)
        journal.load()
        assert journal.last_corpus_deltas, "corpus deltas must be journaled"

        resumed_engine = CampaignEngine(backend=SerialBackend(),
                                        checkpoint_path=journal_path)
        resumed = resumed_engine.run_grid([spec])
        assert _canonical(resumed) == _canonical(original)
        assert resumed_engine.monitor.restored_trials == spec.trials
        assert (resumed_engine.corpus_state.coverage_points()
                == engine.corpus_state.coverage_points())

    def test_kill_mid_grid_resume_restores_feedback_loop(self, tmp_path):
        # Two specs, batch_size=2 -> one batch per spec on the serial
        # backend (the specs share a cache group, so an unbounded batch
        # would fuse them).  Truncating the journal after batch 0 (its
        # corpus delta + its trial records) simulates a kill between
        # batches; the resumed engine must replay the delta and re-run
        # batch 1 with exactly the state the original run gave it --
        # bit-identical results.
        journal_path = str(tmp_path / "grid.jsonl")
        specs = [_spec(seed=17), _spec(seed=23)]
        engine = CampaignEngine(backend=SerialBackend(batch_size=2),
                                checkpoint_path=journal_path)
        original = engine.run_grid(specs)

        second_fp = specs[1].fingerprint()
        kept = []
        for line in Path(journal_path).read_text().splitlines():
            record = json.loads(line)
            if record.get("kind") == "trial" and record["spec"] == second_fp:
                break
            kept.append(line)
        # Drop trailing corpus deltas (they belong to the batch whose
        # trials were lost in the "kill").
        while kept and json.loads(kept[-1]).get("kind") == "corpus":
            kept.pop()
        Path(journal_path).write_text("\n".join(kept) + "\n")

        resumed_engine = CampaignEngine(backend=SerialBackend(batch_size=2),
                                        checkpoint_path=journal_path)
        resumed = resumed_engine.run_grid(specs)
        assert _canonical(resumed) == _canonical(original)
        assert resumed_engine.monitor.restored_trials == specs[0].trials
        assert (resumed_engine.corpus_state.coverage_points()
                == engine.corpus_state.coverage_points())


class TestDistributedConvergence:
    def test_two_workers_converge_to_dispatcher_map(self, tmp_path):
        queue_dir = tmp_path / "spool"
        spec = _spec(trials=4, num_tests=6)
        workers = [_start_worker(queue_dir), _start_worker(queue_dir)]
        try:
            backend = DistributedBackend(str(queue_dir), batch_size=1,
                                         poll_interval=0.05,
                                         max_wait_seconds=120.0,
                                         stop_workers_on_exit=True)
            engine = CampaignEngine(backend=backend)
            (trialset,) = engine.run_grid([spec])
        finally:
            for worker in workers:
                try:
                    worker.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    worker.kill()
                    raise
        assert all(result is not None for result in trialset.results)

        dispatcher_points = engine.corpus_state.coverage_points()
        assert dispatcher_points

        queue = SpoolQueue(str(queue_dir))
        snapshots = queue.coverage_snapshots()
        assert snapshots, "workers that served corpus batches must snapshot"
        for worker_id, payload in snapshots.items():
            worker_points = CorpusManager.from_payload(payload).coverage_points()
            assert worker_points == dispatcher_points, (
                f"worker {worker_id} diverged from the dispatcher's map")
        # The final broadcast carries the same map.
        broadcast = queue.read_coverage_global()
        assert broadcast is not None
        broadcast_points = CorpusManager.from_payload(
            broadcast["state"]).coverage_points()
        assert broadcast_points == dispatcher_points


def _start_worker(queue_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "worker", "--queue",
         str(queue_dir), "--poll-interval", "0.05"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
