"""Tests for trial batching: planning, execution and the wire format."""

import pytest

from repro.exec.batching import (
    TrialBatch,
    TrialTask,
    batch_from_wire,
    batch_key,
    batch_to_wire,
    execute_batch,
    plan_batches,
)
from repro.fuzzing.base import FuzzerConfig
from repro.harness.campaign import CampaignSpec, run_campaign

SMALL_CONFIG = FuzzerConfig(num_seeds=3, mutants_per_test=2)


# A module-unique base seed: the process-level caches are shared across the
# whole pytest run, and the delta assertions below need cold programs.
def _spec(processor="rocket", fuzzer="thehuzz", bugs=(), seed=421):
    return CampaignSpec(processor=processor, fuzzer=fuzzer, num_tests=6,
                        trials=2, seed=seed, bugs=list(bugs),
                        fuzzer_config=SMALL_CONFIG)


def _tasks():
    """4 tasks over two DUT configurations (rocket clean, cva6 with V5)."""
    specs = [_spec(), _spec(processor="cva6", fuzzer="mabfuzz:ucb",
                            bugs=("V5",))]
    return [TrialTask(spec_index, trial, spec)
            for spec_index, spec in enumerate(specs)
            for trial in range(spec.trials)]


class TestPlanBatches:
    def test_groups_by_dut_configuration(self):
        batches = plan_batches(_tasks())
        assert len(batches) == 2
        assert [len(batch.tasks) for batch in batches] == [2, 2]
        for batch in batches:
            assert len({batch_key(task) for task in batch.tasks}) == 1

    def test_chunking_respects_batch_size(self):
        batches = plan_batches(_tasks(), batch_size=1)
        assert len(batches) == 4
        assert all(len(batch.tasks) == 1 for batch in batches)

    def test_unbounded_batches(self):
        spec = _spec()
        tasks = [TrialTask(0, trial, spec) for trial in range(9)]
        batches = plan_batches(tasks, batch_size=None)
        assert len(batches) == 1
        assert len(batches[0].tasks) == 9

    def test_plan_is_deterministic_and_order_preserving(self):
        tasks = _tasks()
        first = plan_batches(tasks)
        second = plan_batches(tasks)
        assert first == second
        flattened = [task for batch in first for task in batch.tasks]
        # Within a group, submission order is preserved.
        for batch in first:
            indices = [task.trial_index for task in batch.tasks]
            assert indices == sorted(indices)
        assert sorted(flattened, key=lambda t: (t.spec_index, t.trial_index)) \
            == sorted(tasks, key=lambda t: (t.spec_index, t.trial_index))

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            plan_batches(_tasks(), batch_size=0)

    def test_cache_entries_carried_through(self):
        batches = plan_batches(_tasks(), cache_entries=128)
        assert all(batch.cache_entries == 128 for batch in batches)

    def test_differing_bug_sets_do_not_share_a_batch(self):
        clean, bugged = _spec(), _spec(bugs=("V1",))
        tasks = [TrialTask(0, 0, clean), TrialTask(1, 0, bugged)]
        assert len(plan_batches(tasks)) == 2


class TestExecuteBatch:
    def test_payload_matches_individual_runs(self):
        tasks = _tasks()[:2]
        payload = execute_batch(TrialBatch(index=0, tasks=tuple(tasks)))
        assert len(payload["results"]) == 2
        for task, item in zip(tasks, payload["results"]):
            assert item["spec_index"] == task.spec_index
            assert item["trial_index"] == task.trial_index
            assert item["result"]["dut_name"] == "rocket"
            assert item["result"]["metadata"]["trial"] == task.trial_index
            direct = run_campaign(task.spec, task.trial_index)
            expected = direct.to_dict()
            del expected["elapsed_seconds"]
            got = dict(item["result"])
            del got["elapsed_seconds"]
            assert got == expected

    def test_cache_stats_are_deltas(self):
        # A seed of its own: the process caches persist across tests, and
        # the first batch here must run cold.
        tasks = (TrialTask(0, 0, _spec(seed=422)),)
        first = execute_batch(TrialBatch(index=0, tasks=tasks))
        second = execute_batch(TrialBatch(index=1, tasks=tasks))
        stats = second["cache_stats"]
        assert set(stats) >= {"dut_cache_hits", "dut_cache_misses",
                              "shared_golden_hits", "shared_golden_misses"}
        # The second, identical batch is served from the warm process
        # caches: every DUT run hits, and no more misses accrue.
        assert stats["dut_cache_misses"] == 0
        assert stats["dut_cache_hits"] > 0
        assert first["cache_stats"]["dut_cache_misses"] > 0


class TestWireFormat:
    def test_round_trip(self):
        batch = plan_batches(_tasks(), cache_entries=64)[0]
        rebuilt = batch_from_wire(batch_to_wire(batch))
        assert rebuilt.index == batch.index
        assert rebuilt.cache_entries == batch.cache_entries
        assert len(rebuilt.tasks) == len(batch.tasks)
        for original, restored in zip(batch.tasks, rebuilt.tasks):
            assert restored.spec_index == original.spec_index
            assert restored.trial_index == original.trial_index
            assert restored.spec == original.spec
            assert restored.spec.fingerprint() == original.spec.fingerprint()

    def test_wire_payload_is_json_safe(self):
        import json

        batch = plan_batches(_tasks())[0]
        encoded = json.dumps(batch_to_wire(batch), sort_keys=True)
        assert batch_from_wire(json.loads(encoded)).tasks == batch.tasks

    def test_rejects_non_batch_payload(self):
        with pytest.raises(ValueError, match="kind"):
            batch_from_wire({"kind": "trial"})

    @pytest.mark.parametrize("key, value, name", [
        ("batch", True, "index"), ("cache_entries", 3.7, "cache_entries"),
        ("tasks", {}, "tasks"), ("bogus", 1, "bogus")])
    def test_wire_fields_are_checked_not_coerced(self, key, value, name):
        # The index travels as "batch"; an error names the field it fills.
        data = batch_to_wire(plan_batches(_tasks())[0])
        data[key] = value
        with pytest.raises(ValueError, match=name):
            batch_from_wire(data)
