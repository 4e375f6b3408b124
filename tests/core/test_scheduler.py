"""Tests for the MAB scheduler (bandit + arms + reward + monitor glue)."""

import pytest

from repro.core.arms import ArmSet
from repro.core.bandit.baselines import RoundRobinPolicy
from repro.core.bandit.ucb import UCBBandit
from repro.core.monitor import SaturationMonitor
from repro.core.reward import RewardComputer
from repro.core.scheduler import MABScheduler
from repro.coverage.bitset import mask_of
from repro.isa.instruction import Instruction
from repro.isa.program import TestProgram


def _seed(tag):
    return TestProgram(instructions=(Instruction("addi", rd=1, rs1=0, imm=tag),))


def _scheduler(num_arms=3, gamma=2, bandit=None, metric="global"):
    seeds = [_seed(i) for i in range(num_arms)]
    replacement_counter = {"count": 100}

    def seed_provider():
        replacement_counter["count"] += 1
        return _seed(replacement_counter["count"])

    scheduler = MABScheduler(
        bandit=bandit or RoundRobinPolicy(num_arms, rng=0),
        arms=ArmSet(seeds),
        reward=RewardComputer(alpha=0.25),
        monitor=SaturationMonitor(gamma=gamma),
        seed_provider=seed_provider,
        saturation_metric=metric,
    )
    return scheduler


class TestConstruction:
    def test_arm_count_mismatch_raises(self):
        with pytest.raises(ValueError):
            MABScheduler(
                bandit=UCBBandit(4),
                arms=ArmSet([_seed(0), _seed(1)]),
                reward=RewardComputer(),
                monitor=SaturationMonitor(),
                seed_provider=lambda: _seed(0),
            )

    def test_invalid_metric(self):
        with pytest.raises(ValueError):
            _scheduler(metric="weird")


class TestSelection:
    def test_select_returns_arm_object(self):
        scheduler = _scheduler()
        arm = scheduler.select()
        assert arm is scheduler.arms[arm.index]

    def test_round_robin_order(self):
        scheduler = _scheduler(num_arms=3)
        assert [scheduler.select().index for _ in range(6)] == [0, 1, 2, 0, 1, 2]


class TestUpdate:
    def test_reward_flows_into_bandit_and_arm(self):
        bandit = UCBBandit(2, rng=0)
        scheduler = _scheduler(num_arms=2, bandit=bandit)
        arm = scheduler.arms[0]
        update = scheduler.update(arm, test_coverage=mask_of({"a", "b"}),
                                  global_new_points=mask_of({"a", "b"}))
        assert update.reward_value == pytest.approx(2.0)  # 0.25*2 + 0.75*2
        assert not update.was_reset
        assert arm.pulls == 1
        assert arm.local_coverage == mask_of({"a", "b"})
        assert bandit.q_values[0] == pytest.approx(2.0)

    def test_local_only_reward(self):
        scheduler = _scheduler(num_arms=2)
        arm = scheduler.arms[0]
        update = scheduler.update(arm, test_coverage=mask_of({"a"}),
                                  global_new_points=0)
        assert update.reward.local_count == 1
        assert update.reward.global_count == 0
        assert update.reward_value == pytest.approx(0.25)

    def test_saturated_arm_gets_reset(self):
        bandit = UCBBandit(2, rng=0)
        scheduler = _scheduler(num_arms=2, gamma=2, bandit=bandit)
        arm = scheduler.arms[0]
        old_seed = arm.seed
        bandit.update(0, 1.0)  # give the arm some history to be cleared
        scheduler.update(arm, mask_of({"a"}), 0)   # local-new only -> global count 0
        assert not scheduler.arms[0].resets
        update = scheduler.update(arm, mask_of({"a"}), 0)
        assert update.was_reset
        assert update.replacement_seed_id is not None
        assert scheduler.arms[0].seed is not old_seed
        assert scheduler.arms[0].local_coverage == 0
        assert bandit.arm_pulls[0] == 0 and bandit.q_values[0] == 0.0
        assert scheduler.total_resets == 1

    def test_local_metric_uses_local_counts(self):
        scheduler = _scheduler(num_arms=1, gamma=2, metric="local")
        arm = scheduler.arms[0]
        # Local-new coverage keeps the arm alive under the "local" metric.
        scheduler.update(arm, mask_of({"a"}), 0)
        scheduler.update(arm, mask_of({"b"}), 0)
        assert scheduler.total_resets == 0
        # Two pulls with nothing new at all -> reset.
        scheduler.update(arm, mask_of({"a"}), 0)
        update = scheduler.update(arm, mask_of({"a", "b"}), 0)
        assert update.was_reset

    def test_global_metric_resets_despite_local_news(self):
        scheduler = _scheduler(num_arms=1, gamma=2, metric="global")
        arm = scheduler.arms[0]
        scheduler.update(arm, mask_of({"a"}), 0)
        update = scheduler.update(arm, mask_of({"b"}), 0)
        assert update.was_reset

    def test_monitor_cleared_after_reset(self):
        scheduler = _scheduler(num_arms=1, gamma=2)
        arm = scheduler.arms[0]
        scheduler.update(arm, 0, 0)
        scheduler.update(arm, 0, 0)          # reset happens here
        assert scheduler.total_resets == 1
        scheduler.update(arm, 0, 0)          # fresh window, not yet saturated
        assert scheduler.total_resets == 1
        scheduler.update(arm, 0, 0)
        assert scheduler.total_resets == 2
