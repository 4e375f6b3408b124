"""Backend tests, including the serial-vs-parallel determinism guarantee."""

import pytest

from repro.exec.backends import (
    ProcessPoolBackend,
    SerialBackend,
    TrialTask,
)
from repro.exec.batching import TrialBatch, execute_batch
from repro.exec.engine import run_grid
from repro.fuzzing.base import FuzzerConfig
from repro.harness.campaign import CampaignSpec

SMALL_CONFIG = FuzzerConfig(num_seeds=3, mutants_per_test=2)


def _grid():
    """A small heterogeneous grid: two processors, two fuzzer families."""
    return [
        CampaignSpec(processor="rocket", fuzzer="thehuzz", num_tests=8,
                     trials=2, seed=5, bugs=[], fuzzer_config=SMALL_CONFIG),
        CampaignSpec(processor="cva6", fuzzer="mabfuzz:ucb", num_tests=8,
                     trials=2, seed=5, bugs=["V5"], fuzzer_config=SMALL_CONFIG),
    ]


def _canonical(trialsets):
    return [[r.canonical_dict() for r in ts.results] for ts in trialsets]


class TestBackendValidation:
    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            ProcessPoolBackend(workers=0)

    def test_recycle_must_be_positive(self):
        with pytest.raises(ValueError):
            ProcessPoolBackend(workers=2, max_tasks_per_child=0)

    def test_recycling_avoids_fork(self):
        backend = ProcessPoolBackend(workers=2, max_tasks_per_child=1)
        assert backend.start_method in ("forkserver", "spawn")

    def test_explicit_fork_with_recycling_rejected_early(self):
        with pytest.raises(ValueError, match="fork"):
            ProcessPoolBackend(workers=2, max_tasks_per_child=1,
                               start_method="fork")

    def test_describe(self):
        assert "serial" in SerialBackend().describe()
        assert "2 workers" in ProcessPoolBackend(workers=2).describe()


class TestExecuteTrial:
    """A single trial runs as a one-task batch through `execute_batch`."""

    def test_returns_serialized_payload(self):
        spec = _grid()[0]
        payload = execute_batch(TrialBatch(index=0,
                                           tasks=(TrialTask(0, 1, spec),)))
        [item] = payload["results"]
        assert (item["spec_index"], item["trial_index"]) == (0, 1)
        assert isinstance(item["result"], dict)
        assert item["result"]["dut_name"] == "rocket"
        assert item["result"]["metadata"]["trial"] == 1


class TestPoolAbort:
    def test_worker_error_propagates_without_draining_grid(self):
        # An unknown processor makes the worker raise on its first trial;
        # the backend must surface the error promptly (pending futures are
        # cancelled, not run to completion) rather than swallow it.
        bad = CampaignSpec(processor="rocket", fuzzer="no-such-fuzzer",
                           num_tests=8, trials=4, seed=1, bugs=[],
                           fuzzer_config=SMALL_CONFIG)
        backend = ProcessPoolBackend(workers=1)
        tasks = [TrialTask(0, trial, bad) for trial in range(4)]
        with pytest.raises(KeyError):
            for _ in backend.run(tasks):
                pass

    def test_abandoning_the_generator_is_clean(self):
        spec = _grid()[0]
        backend = ProcessPoolBackend(workers=1)
        tasks = [TrialTask(0, trial, spec) for trial in range(3)]
        stream = backend.run(tasks)
        next(stream)
        stream.close()  # queued trials are cancelled, no hang, no error


class TestSerialVsParallelDeterminism:
    """The subsystem's hard requirement: backends cannot change results."""

    def test_process_pool_matches_serial_bit_for_bit(self):
        specs = _grid()
        serial = run_grid(specs, backend=SerialBackend())
        parallel = run_grid(specs, backend=ProcessPoolBackend(workers=4))
        assert _canonical(parallel) == _canonical(serial)

    def test_worker_recycling_preserves_determinism(self):
        specs = _grid()[:1]
        serial = run_grid(specs, backend=SerialBackend())
        recycled = run_grid(specs, backend=ProcessPoolBackend(
            workers=2, max_tasks_per_child=1))
        assert _canonical(recycled) == _canonical(serial)

    def test_serial_rerun_is_reproducible(self):
        specs = _grid()[:1]
        first = run_grid(specs, backend=SerialBackend())
        second = run_grid(specs, backend=SerialBackend())
        assert _canonical(first) == _canonical(second)

    def test_batch_shape_cannot_change_results(self):
        # One trial per batch, unbounded batches and the default grouping
        # must all be bit-identical: batching is pure scheduling.
        specs = _grid()
        reference = run_grid(specs, backend=SerialBackend())
        for batch_size in (1, None):
            shaped = run_grid(specs,
                              backend=SerialBackend(batch_size=batch_size))
            assert _canonical(shaped) == _canonical(reference)

    def test_tiny_cache_capacity_cannot_change_results(self):
        # cache_entries=1 forces constant LRU spill in the process caches;
        # results (including the metadata counters) must not move.
        specs = _grid()
        reference = run_grid(specs, backend=SerialBackend())
        starved = run_grid(specs, backend=SerialBackend(), cache_entries=1)
        assert _canonical(starved) == _canonical(reference)


class TestBackendBatching:
    def test_cache_stats_accumulate_over_run(self):
        backend = SerialBackend()
        specs = _grid()[:1]
        list(backend.run([TrialTask(0, trial, specs[0])
                          for trial in range(2)]))
        assert "dut_cache_misses" in backend.cache_stats
        total = (backend.cache_stats["dut_cache_hits"]
                 + backend.cache_stats["dut_cache_misses"])
        assert total > 0

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(ValueError):
            SerialBackend(batch_size=0)

    def test_invalid_cache_entries_rejected(self):
        with pytest.raises(ValueError):
            SerialBackend(cache_entries=0)

    def test_empty_task_list_is_a_noop(self):
        backend = SerialBackend()
        assert list(backend.run([])) == []
