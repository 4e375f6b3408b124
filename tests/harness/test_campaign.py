"""Tests for campaign specs, trial seeding and trial running."""

import json

import pytest

from repro.exec.engine import CampaignEngine
from repro.fuzzing.base import FuzzerConfig
from repro.fuzzing.results import FuzzCampaignResult
from repro.harness.campaign import (
    CampaignSpec,
    TrialSet,
    run_campaign,
    trial_seed,
)


SMALL = dict(num_tests=12, trials=2, seed=3,
             fuzzer_config=FuzzerConfig(num_seeds=3, mutants_per_test=2))

#: a wire case that deletes its field instead of setting it.
MISSING = "<missing>"


class TestCampaignSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            CampaignSpec(processor="cva6", fuzzer="thehuzz", num_tests=0)
        with pytest.raises(ValueError):
            CampaignSpec(processor="cva6", fuzzer="thehuzz", trials=0)

    def test_defaults(self):
        spec = CampaignSpec(processor="cva6", fuzzer="thehuzz")
        assert spec.trials == 3
        assert spec.bugs is None

    def test_fingerprint_is_content_addressed(self):
        spec = CampaignSpec(processor="cva6", fuzzer="thehuzz", **SMALL)
        same = CampaignSpec(processor="cva6", fuzzer="thehuzz", **SMALL)
        assert spec.fingerprint() == same.fingerprint()
        other = CampaignSpec(processor="cva6", fuzzer="thehuzz",
                             num_tests=13, trials=2, seed=3,
                             fuzzer_config=SMALL["fuzzer_config"])
        assert spec.fingerprint() != other.fingerprint()

    def test_fingerprint_ignores_trial_count(self):
        # Trials are independent and individually seeded, so extending a
        # grid's trial count must keep matching its journaled trials.
        two = CampaignSpec(processor="cva6", fuzzer="thehuzz", trials=2)
        three = CampaignSpec(processor="cva6", fuzzer="thehuzz", trials=3)
        assert two.fingerprint() == three.fingerprint()

    def test_fingerprint_sees_nested_config(self):
        spec = CampaignSpec(processor="cva6", fuzzer="thehuzz", **SMALL)
        deeper = CampaignSpec(processor="cva6", fuzzer="thehuzz",
                              num_tests=12, trials=2, seed=3,
                              fuzzer_config=FuzzerConfig(num_seeds=4,
                                                         mutants_per_test=2))
        assert spec.fingerprint() != deeper.fingerprint()

    def test_fingerprint_backward_compatible_with_pre_corpus_payloads(self):
        # Journals written before the corpus subsystem serialized
        # FuzzerConfig without a "corpus" key; a corpus-off spec must keep
        # fingerprinting identically so those journals still resume.
        spec = CampaignSpec(processor="cva6", fuzzer="thehuzz", **SMALL)
        legacy = spec.to_dict()
        assert legacy["fuzzer_config"].pop("corpus") is False
        assert CampaignSpec.from_dict(legacy).fingerprint() == spec.fingerprint()

    def test_fingerprint_sees_corpus_mode(self):
        off = CampaignSpec(processor="cva6", fuzzer="thehuzz", **SMALL)
        on = CampaignSpec(processor="cva6", fuzzer="thehuzz",
                          num_tests=12, trials=2, seed=3,
                          fuzzer_config=FuzzerConfig(num_seeds=3,
                                                     mutants_per_test=2,
                                                     corpus=True))
        assert off.fingerprint() != on.fingerprint()


class TestSpecWireFormat:
    def _full_spec(self):
        from repro.core.config import MABFuzzConfig
        from repro.isa.generator import GeneratorConfig

        return CampaignSpec(
            processor="rocket", fuzzer="mabfuzz:exp3", num_tests=40,
            trials=2, seed=9, bugs=["V5", "V7"],
            fuzzer_config=FuzzerConfig(
                num_seeds=4, mutants_per_test=3,
                generator_config=GeneratorConfig(min_instructions=8,
                                                 max_instructions=16,
                                                 illegal_word_prob=0.05),
                mutation_weights={"bitflip1": 2.0},
                max_program_steps=500),
            mab_config=MABFuzzConfig(num_arms=5, alpha=0.5, gamma=None),
        )

    def test_round_trip_preserves_spec_and_fingerprint(self):
        spec = self._full_spec()
        rebuilt = CampaignSpec.from_dict(spec.to_dict())
        assert rebuilt == spec
        assert rebuilt.fingerprint() == spec.fingerprint()

    def test_round_trip_survives_json(self):
        import json

        spec = self._full_spec()
        rebuilt = CampaignSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt.fingerprint() == spec.fingerprint()

    def test_none_fields_round_trip(self):
        spec = CampaignSpec(processor="cva6", fuzzer="thehuzz")
        rebuilt = CampaignSpec.from_dict(spec.to_dict())
        assert rebuilt == spec
        assert rebuilt.bugs is None
        assert rebuilt.fuzzer_config is None
        assert rebuilt.mab_config is None

    @pytest.mark.parametrize("name, value", [
        ("register_pool", [40]), ("register_pool", [5, 5.5]),
        ("profile_concentration", float("inf")),
        ("class_weights", {"ARITH": -1.0}), ("class_weights", {"NOPE": 1.0}),
        ("class_weights", {"ARITH": "1.0"}),
        ("min_instructions", 12.9), ("max_instructions", True),
        ("randomize_profile", "false"), ("randomize_profile", 1),
        ("wide_register_prob", "0.1"), ("illegal_word_prob", True),
        ("register_pool", [True, 5])])
    def test_bad_operand_settings_rejected_from_the_wire(self, name, value):
        data = self._full_spec().to_dict()
        data["fuzzer_config"]["generator_config"][name] = value
        with pytest.raises(ValueError, match=name):
            CampaignSpec.from_dict(json.loads(json.dumps(data)))

    @pytest.mark.parametrize("section, name, value", [
        ("fuzzer_config", "corpus", "false"),
        ("fuzzer_config", "num_seeds", 4.0),
        ("fuzzer_config", "mutants_per_test", True),
        ("fuzzer_config", "max_program_steps", 500.5),
        ("fuzzer_config", "mutation_weights", {"bitflip1": "2"}),
        (None, "num_tests", "40"), (None, "trials", 2.0), (None, "seed", False),
        ("fuzzer_config", "mutation_weights", {"bogus": 1.0}),
        ("fuzzer_config", "mutation_weights", [1.0]),
        ("mab_config", "num_arms", 5.7), ("mab_config", "alpha", "0.5"),
        ("mab_config", "gamma", True), ("mab_config", "epsilon", None),
        ("mab_config", "eta", "0.1"), ("mab_config", "ucb_exploration", False),
        ("mab_config", "saturation_metric", 1), ("mab_config", "arm_pool_max", 8.0),
        ("mab_config", "reward_weights", {"csr": "2"}),
        ("mab_config", "reward_weights", ["csr"]), ("mab_config", "bogus", 1),
        (None, "processor", "bogus"), (None, "processor", 5),
        (None, "fuzzer", "nope"), (None, "fuzzer", "mabfuzz:nope"),
        (None, "fuzzer", "thehuzz:ucb"), (None, "bugs", ["V99"]),
        (None, "bugs", "V7"), (None, "bugs", [7]),
        ("fuzzer_config.generator_config", "class_weights", [1.0]),
        ("fuzzer_config.generator_config", "class_weights", "ARITH"),
        ("fuzzer_config.generator_config", "class_weights", 1),
        ("fuzzer_config", "num_seeds", MISSING), (None, "processor", MISSING),
        (None, "fuzzer_config", [1]), (None, "mab_config", 3),
        ("fuzzer_config", "generator_config", "x")])
    def test_wire_fields_are_checked_not_coerced(self, section, name, value):
        data = self._full_spec().to_dict()
        target = data
        for key in section.split(".") if section else ():
            target = target[key]
        if value is MISSING:
            del target[name]
        else:
            target[name] = value
        with pytest.raises(ValueError, match=name):
            CampaignSpec.from_dict(json.loads(json.dumps(data)))

    @pytest.mark.parametrize("name, value", [
        ("processor", "ROCKET"), ("fuzzer", "MABFuzz:UCB1"),
        ("fuzzer", "mutation-bandit:epsilon-greedy"), ("fuzzer", "TheHuzz"),
        ("bugs", ["v7"])])
    def test_wire_names_are_accepted_as_the_trial_accepts_them(self, name, value):
        # Any letter case and every bandit alias, checked but not
        # rewritten: the spec keeps the name it was sent.
        data = self._full_spec().to_dict()
        data[name] = value
        assert CampaignSpec.from_dict(data).to_dict() == data

    def test_numbers_in_float_fields_keep_their_value(self):
        data = self._full_spec().to_dict()
        data["fuzzer_config"]["generator_config"]["illegal_word_prob"] = 0
        rebuilt = CampaignSpec.from_dict(json.loads(json.dumps(data)))
        assert rebuilt.fuzzer_config.generator_config.illegal_word_prob == 0.0

    def test_trial_seeds_survive_the_wire(self):
        spec = self._full_spec()
        rebuilt = CampaignSpec.from_dict(spec.to_dict())
        assert [trial_seed(spec, i) for i in range(3)] \
            == [trial_seed(rebuilt, i) for i in range(3)]


class TestTrialSeed:
    def test_deterministic(self):
        spec = CampaignSpec(processor="cva6", fuzzer="thehuzz", **SMALL)
        assert trial_seed(spec, 0) == trial_seed(spec, 0)
        assert trial_seed(spec, 0) != trial_seed(spec, 1)

    def test_no_cross_spec_collisions_on_shared_base_seed(self):
        # The old ``seed + trial`` scheme collided here: trial 1 of seed=0
        # equalled trial 0 of seed=1 for the same (processor, fuzzer).
        a = CampaignSpec(processor="cva6", fuzzer="thehuzz", seed=0)
        b = CampaignSpec(processor="cva6", fuzzer="thehuzz", seed=1)
        assert trial_seed(a, 1) != trial_seed(b, 0)

    def test_spread_across_grid_cells(self):
        seeds = {trial_seed(CampaignSpec(processor=p, fuzzer=f, seed=0), t)
                 for p in ("cva6", "rocket", "boom")
                 for f in ("thehuzz", "mabfuzz:ucb")
                 for t in range(3)}
        assert len(seeds) == 18  # every grid cell gets its own stream

    def test_negative_trial_rejected(self):
        spec = CampaignSpec(processor="cva6", fuzzer="thehuzz")
        with pytest.raises(ValueError):
            trial_seed(spec, -1)


class TestRunCampaign:
    def test_single_trial(self):
        spec = CampaignSpec(processor="rocket", fuzzer="thehuzz", bugs=[], **SMALL)
        result = run_campaign(spec, trial_index=0)
        assert result.num_tests == 12
        assert result.dut_name == "rocket"
        assert result.metadata["trial"] == 0

    def test_trial_index_changes_seed(self):
        spec = CampaignSpec(processor="rocket", fuzzer="thehuzz", bugs=[], **SMALL)
        first = run_campaign(spec, trial_index=0)
        second = run_campaign(spec, trial_index=1)
        assert first.metadata["seed"] != second.metadata["seed"]

    def test_same_trial_reproducible(self):
        spec = CampaignSpec(processor="cva6", fuzzer="mabfuzz:ucb", bugs=[], **SMALL)
        first = run_campaign(spec, trial_index=0)
        second = run_campaign(spec, trial_index=0)
        assert first.coverage_count == second.coverage_count


class TestRunTrials:
    def test_trialset_contents(self):
        spec = CampaignSpec(processor="rocket", fuzzer="thehuzz", bugs=[], **SMALL)
        (trialset,) = CampaignEngine().run_grid([spec])
        assert isinstance(trialset, TrialSet)
        assert trialset.num_trials == 2
        assert trialset.processor == "rocket"
        assert trialset.fuzzer_name == "thehuzz"
        assert trialset.mean_coverage_count() > 0
        assert 0 < trialset.mean_coverage_percent() < 100

    def test_detection_tests_list(self):
        spec = CampaignSpec(processor="cva6", fuzzer="thehuzz", bugs=["V5"],
                            num_tests=40, trials=2, seed=1,
                            fuzzer_config=FuzzerConfig(num_seeds=4))
        (trialset,) = CampaignEngine().run_grid([spec])
        detections = trialset.detection_tests("V5")
        assert len(detections) == 2
        assert any(d is not None for d in detections)


class TestPartialTrialSet:
    """Aggregates must tolerate resume holes and short result lists."""

    def _partial(self):
        spec = CampaignSpec(processor="cva6", fuzzer="thehuzz", trials=3)
        ran = FuzzCampaignResult(
            fuzzer_name="thehuzz", dut_name="cva6", num_tests=10,
            coverage_count=8, total_points=100,
        )
        return TrialSet(spec=spec, results=[ran, None])  # trial 1 hole, 2 missing

    def test_counts_skip_holes(self):
        trialset = self._partial()
        assert trialset.num_trials == 1
        assert not trialset.is_complete
        assert trialset.missing_trials() == [1, 2]

    def test_means_over_completed_only(self):
        trialset = self._partial()
        assert trialset.mean_coverage_count() == pytest.approx(8.0)
        assert trialset.mean_coverage_percent() == pytest.approx(8.0)

    def test_detection_tests_excludes_unrun_trials(self):
        detections = self._partial().detection_tests("V5")
        assert detections == [None]  # ran-but-undetected; holes excluded

    def test_empty_set_is_safe(self):
        trialset = TrialSet(spec=CampaignSpec(processor="cva6", fuzzer="thehuzz"))
        assert trialset.mean_coverage_count() == 0.0
        assert trialset.detection_tests("V5") == []
        assert trialset.missing_trials() == [0, 1, 2]
