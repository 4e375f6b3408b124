"""Tests for the MAB algorithms (ε-greedy, UCB, EXP3) and their reset feature."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bandit.base import BanditAlgorithm
from repro.core.bandit.epsilon_greedy import EpsilonGreedyBandit
from repro.core.bandit.exp3 import EXP3Bandit
from repro.core.bandit.factory import available_bandits, make_bandit
from repro.core.bandit.ucb import UCBBandit
from repro.core.config import MABFuzzConfig

ALL_ALGORITHMS = [
    lambda rng=None: EpsilonGreedyBandit(5, epsilon=0.1, rng=rng),
    lambda rng=None: UCBBandit(5, rng=rng),
    lambda rng=None: EXP3Bandit(5, eta=0.2, rng=rng),
]


def _bandit_simulation(bandit: BanditAlgorithm, means, steps=800, rng_seed=0):
    """Simulate a stationary Bernoulli bandit; return per-arm pull counts."""
    rng = np.random.default_rng(rng_seed)
    pulls = [0] * bandit.num_arms
    for _ in range(steps):
        arm = bandit.select()
        reward = float(rng.random() < means[arm])
        bandit.update(arm, reward)
        pulls[arm] += 1
    return pulls


class TestCommonInterface:
    @pytest.mark.parametrize("factory", ALL_ALGORITHMS)
    def test_select_returns_valid_arm(self, factory):
        bandit = factory(rng=1)
        for _ in range(50):
            assert 0 <= bandit.select() < bandit.num_arms

    @pytest.mark.parametrize("factory", ALL_ALGORITHMS)
    def test_update_out_of_range_raises(self, factory):
        with pytest.raises(IndexError):
            factory(rng=1).update(99, 1.0)

    @pytest.mark.parametrize("factory", ALL_ALGORITHMS)
    def test_reset_out_of_range_raises(self, factory):
        with pytest.raises(IndexError):
            factory(rng=1).reset_arm(-1)

    @pytest.mark.parametrize("factory", ALL_ALGORITHMS)
    def test_pull_bookkeeping(self, factory):
        bandit = factory(rng=1)
        for _ in range(10):
            bandit.update(bandit.select(), 0.5)
        assert bandit.total_pulls == 10
        assert sum(bandit.pull_counts) == 10

    @pytest.mark.parametrize("factory", ALL_ALGORITHMS)
    def test_snapshot_has_core_fields(self, factory):
        snapshot = factory(rng=1).snapshot()
        assert snapshot["num_arms"] == 5
        assert "pull_counts" in snapshot

    @pytest.mark.parametrize("factory", ALL_ALGORITHMS)
    def test_learns_best_arm(self, factory):
        """After many pulls, the clearly-best arm is pulled most often."""
        bandit = factory(rng=7)
        means = [0.05, 0.1, 0.05, 0.9, 0.1]
        pulls = _bandit_simulation(bandit, means, steps=800, rng_seed=3)
        assert pulls[3] == max(pulls)
        assert pulls[3] > 0.4 * sum(pulls)

    def test_invalid_num_arms(self):
        with pytest.raises(ValueError):
            EpsilonGreedyBandit(0)


class TestEpsilonGreedy:
    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            EpsilonGreedyBandit(3, epsilon=1.5)

    def test_greedy_when_epsilon_zero(self):
        bandit = EpsilonGreedyBandit(3, epsilon=0.0, rng=0)
        bandit.update(1, 10.0)
        assert all(bandit.select() == 1 for _ in range(20))

    def test_sample_average_update(self):
        bandit = EpsilonGreedyBandit(2, epsilon=0.0, rng=0)
        bandit.update(0, 4.0)
        bandit.update(0, 8.0)
        assert bandit.q_values[0] == pytest.approx(6.0)

    def test_reset_clears_value_and_count(self):
        bandit = EpsilonGreedyBandit(2, epsilon=0.0, rng=0)
        bandit.update(0, 4.0)
        bandit.reset_arm(0)
        assert bandit.q_values[0] == 0.0
        assert bandit.arm_pulls[0] == 0

    def test_explores_with_epsilon_one(self):
        bandit = EpsilonGreedyBandit(4, epsilon=1.0, rng=0)
        bandit.update(2, 100.0)
        selections = {bandit.select() for _ in range(200)}
        assert selections == {0, 1, 2, 3}


class TestUCB:
    def test_unpulled_arms_selected_first(self):
        bandit = UCBBandit(4, rng=0)
        seen = set()
        for _ in range(4):
            arm = bandit.select()
            seen.add(arm)
            bandit.update(arm, 0.0)
        assert seen == {0, 1, 2, 3}

    def test_reset_arm_is_repulled_immediately(self):
        bandit = UCBBandit(3, rng=0)
        for _ in range(9):
            bandit.update(bandit.select(), 1.0)
        bandit.reset_arm(1)
        assert bandit.select() == 1  # infinite confidence bonus

    def test_confidence_bonus_shrinks_with_pulls(self):
        bandit = UCBBandit(2, rng=0)
        bandit.update(0, 0.0)
        bandit.update(1, 0.0)
        for _ in range(50):
            bandit.update(0, 0.0)
        # Arm 1 has far fewer pulls, so its bonus dominates.
        assert bandit.select() == 1

    def test_invalid_exploration(self):
        with pytest.raises(ValueError):
            UCBBandit(2, exploration=0.0)


class TestEXP3:
    def test_probabilities_sum_to_one(self):
        bandit = EXP3Bandit(6, eta=0.3, rng=0)
        for _ in range(30):
            bandit.update(bandit.select(), 0.4)
            assert sum(bandit.probabilities()) == pytest.approx(1.0)

    def test_probabilities_have_uniform_floor(self):
        bandit = EXP3Bandit(4, eta=0.2, rng=0)
        for _ in range(100):
            bandit.update(0, 1.0)
        floor = bandit.eta / bandit.num_arms
        assert all(p >= floor - 1e-12 for p in bandit.probabilities())

    @pytest.mark.parametrize("weights", [[float("nan"), 1.0, 1.0],
                                         [-5.0, 1.0, 1.0]])
    def test_select_rejects_invalid_distributions(self, weights):
        bandit = EXP3Bandit(3, eta=0.2, rng=0)
        bandit.weights = weights
        with pytest.raises(ValueError):
            bandit.select()

    def test_rewarded_arm_gains_probability(self):
        bandit = EXP3Bandit(3, eta=0.2, rng=0)
        before = bandit.probabilities()[0]
        for _ in range(20):
            bandit.update(0, 1.0)
        assert bandit.probabilities()[0] > before

    def test_reward_normalisation(self):
        small = EXP3Bandit(2, eta=0.5, reward_normalizer=1.0, rng=0)
        large = EXP3Bandit(2, eta=0.5, reward_normalizer=100.0, rng=0)
        small.update(0, 1.0)
        large.update(0, 100.0)
        assert small.weights[0] == pytest.approx(large.weights[0])

    def test_reset_sets_average_weight(self):
        bandit = EXP3Bandit(3, eta=0.2, rng=0)
        bandit.weights = [4.0, 1.0, 1.0]
        bandit.reset_arm(0)
        assert bandit.weights[0] == pytest.approx(1.0)

    def test_reset_single_arm(self):
        bandit = EXP3Bandit(1, eta=0.2, rng=0)
        bandit.weights = [9.0]
        bandit.reset_arm(0)
        assert bandit.weights[0] == 1.0

    def test_weights_rescaled_when_huge(self):
        bandit = EXP3Bandit(2, eta=1.0, reward_normalizer=1.0, rng=0)
        bandit.weights = [1e13, 1.0]
        bandit._rescale_if_needed()
        assert max(bandit.weights) <= 1.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            EXP3Bandit(2, eta=0.0)
        with pytest.raises(ValueError):
            EXP3Bandit(2, reward_normalizer=0.0)


class TestFactory:
    def test_available(self):
        assert set(available_bandits()) == {"egreedy", "ucb", "exp3", "uniform",
                                            "roundrobin", "greedy"}

    def test_aliases(self):
        assert isinstance(make_bandit("epsilon-greedy", 4), EpsilonGreedyBandit)
        assert isinstance(make_bandit("UCB1", 4), UCBBandit)
        assert isinstance(make_bandit("exp3", 4), EXP3Bandit)

    def test_config_parameters_forwarded(self):
        config = MABFuzzConfig(epsilon=0.3, eta=0.7)
        egreedy = make_bandit("egreedy", 4, config=config)
        exp3 = make_bandit("exp3", 4, config=config, reward_normalizer=50.0)
        assert egreedy.epsilon == pytest.approx(0.3)
        assert exp3.eta == pytest.approx(0.7)
        assert exp3.reward_normalizer == pytest.approx(50.0)

    def test_instance_passthrough(self):
        bandit = UCBBandit(4)
        assert make_bandit(bandit, 4) is bandit
        with pytest.raises(ValueError):
            make_bandit(bandit, 5)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make_bandit("thompson", 4)


# ----------------------------------------------------------------- properties
@given(rewards=st.lists(st.floats(0, 1), min_size=1, max_size=50),
       algorithm=st.sampled_from(["egreedy", "ucb", "exp3"]))
@settings(max_examples=60, deadline=None)
def test_update_select_never_crash_and_stay_in_range(rewards, algorithm):
    bandit = make_bandit(algorithm, 4, rng=0)
    for reward in rewards:
        arm = bandit.select()
        assert 0 <= arm < 4
        bandit.update(arm, reward)
    assert bandit.total_pulls == len(rewards)


@given(reset_points=st.lists(st.integers(0, 3), min_size=1, max_size=10),
       algorithm=st.sampled_from(["egreedy", "ucb", "exp3"]))
@settings(max_examples=40, deadline=None)
def test_reset_keeps_algorithms_usable(reset_points, algorithm):
    bandit = make_bandit(algorithm, 4, rng=1)
    for arm_to_reset in reset_points:
        for _ in range(3):
            bandit.update(bandit.select(), 0.5)
        bandit.reset_arm(arm_to_reset)
    arm = bandit.select()
    assert 0 <= arm < 4
    if algorithm == "exp3":
        assert all(w > 0 for w in bandit.weights)
