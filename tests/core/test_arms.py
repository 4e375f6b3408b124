"""Tests for arms and arm sets."""

import pytest

from repro.core.arms import Arm, ArmSet
from repro.coverage.bitset import mask_of
from repro.isa.generator import SeedGenerator
from repro.isa.instruction import Instruction
from repro.isa.program import TestProgram


def _seed(tag=0):
    return TestProgram(instructions=(Instruction("addi", rd=1, rs1=0, imm=tag),))


class TestArm:
    def test_pool_starts_with_seed(self):
        seed = _seed()
        arm = Arm(index=0, seed=seed)
        assert len(arm.pool) == 1
        assert arm.pool.peek() is seed

    def test_record_pull(self):
        arm = Arm(index=0, seed=_seed())
        arm.record_pull(mask_of({"a", "b"}), reward=2.0)
        arm.record_pull(mask_of({"b", "c"}), reward=1.0)
        assert arm.pulls == 2
        assert arm.total_reward == pytest.approx(3.0)
        assert arm.mean_reward == pytest.approx(1.5)
        assert arm.local_coverage == mask_of({"a", "b", "c"})

    def test_local_new_points(self):
        arm = Arm(index=0, seed=_seed())
        arm.record_pull(mask_of({"a"}), reward=1.0)
        assert arm.local_new_points(mask_of({"a", "b"})) == mask_of({"b"})

    def test_mean_reward_zero_when_unpulled(self):
        assert Arm(index=0, seed=_seed()).mean_reward == 0.0

    def test_reset_with(self):
        arm = Arm(index=0, seed=_seed(1))
        arm.record_pull(mask_of({"a"}), reward=1.0)
        arm.pool.push(_seed(2))
        new_seed = _seed(3)
        arm.reset_with(new_seed)
        assert arm.seed is new_seed
        assert arm.pulls == 0
        assert arm.total_reward == 0.0
        assert arm.local_coverage == 0
        assert arm.resets == 1
        assert arm.generation == 1
        assert len(arm.pool) == 1
        assert arm.pool.peek() is new_seed


class TestArmSet:
    def test_from_generator(self):
        arms = ArmSet.from_generator(SeedGenerator(rng=0), 6)
        assert len(arms) == 6
        assert [arm.index for arm in arms] == list(range(6))

    def test_requires_seeds(self):
        with pytest.raises(ValueError):
            ArmSet([])
        with pytest.raises(ValueError):
            ArmSet.from_generator(SeedGenerator(rng=0), 0)

    def test_pool_max_applied(self):
        arms = ArmSet.from_generator(SeedGenerator(rng=0), 2, pool_max=3)
        assert arms[0].pool.max_size == 3

    def test_indexing_and_iteration(self):
        arms = ArmSet([_seed(0), _seed(1)])
        assert arms[1].seed.instructions[0].imm == 1
        assert [a.index for a in arms] == [0, 1]

    def test_reset_arm_and_total_resets(self):
        arms = ArmSet([_seed(0), _seed(1)])
        arms.reset_arm(0, _seed(9))
        arms.reset_arm(1, _seed(8))
        arms.reset_arm(1, _seed(7))
        assert arms.total_resets == 3
        assert arms[1].seed.instructions[0].imm == 7
