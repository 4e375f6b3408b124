"""Tests for the α-weighted local/global reward (Sec. III-B)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.core.reward import RewardBreakdown, RewardComputer
from repro.coverage.bitset import mask_of, points_of

point_sets = st.sets(st.integers(0, 60).map(lambda i: f"p{i}"), max_size=25)


class TestRewardComputer:
    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            RewardComputer(alpha=-0.1)
        with pytest.raises(ValueError):
            RewardComputer(alpha=1.1)

    def test_paper_example_weighting(self):
        """With α = 0.25 a globally-new point is worth 3x an arm-only-new point."""
        computer = RewardComputer(alpha=0.25)
        only_local = computer.compute(arm_coverage=0,
                                      test_coverage=mask_of({"a"}),
                                      global_new_points=0)
        also_global = computer.compute(arm_coverage=0,
                                       test_coverage=mask_of({"a"}),
                                       global_new_points=mask_of({"a"}))
        assert only_local.value == pytest.approx(0.25)
        assert also_global.value == pytest.approx(1.0)
        assert also_global.value / only_local.value == pytest.approx(4.0)
        # relative extra weight of the global component: (1-α)/α = 3.
        assert (also_global.value - only_local.value) / only_local.value == pytest.approx(3.0)

    def test_no_new_coverage_zero_reward(self):
        computer = RewardComputer()
        breakdown = computer.compute(mask_of({"a", "b"}), mask_of({"a", "b"}), 0)
        assert breakdown.value == 0.0
        assert breakdown.local_count == 0
        assert breakdown.global_count == 0

    def test_local_excludes_arm_history(self):
        computer = RewardComputer(alpha=0.5)
        breakdown = computer.compute(mask_of({"a"}), mask_of({"a", "b", "c"}),
                                     mask_of({"c"}))
        assert breakdown.local_new == mask_of({"b", "c"})
        assert breakdown.global_new == mask_of({"c"})
        assert breakdown.value == pytest.approx(0.5 * 2 + 0.5 * 1)

    def test_alpha_one_ignores_global(self):
        computer = RewardComputer(alpha=1.0)
        breakdown = computer.compute(0, mask_of({"a", "b"}), mask_of({"a"}))
        assert breakdown.value == pytest.approx(2.0)

    def test_alpha_zero_counts_only_global(self):
        computer = RewardComputer(alpha=0.0)
        breakdown = computer.compute(0, mask_of({"a", "b"}), mask_of({"a"}))
        assert breakdown.value == pytest.approx(1.0)


class TestRewardBreakdown:
    def test_counts(self):
        breakdown = RewardBreakdown(local_new=mask_of({"a", "b"}),
                                    global_new=mask_of({"a"}), alpha=0.25)
        assert breakdown.local_count == 2
        assert breakdown.global_count == 1
        assert breakdown.value == pytest.approx(0.25 * 2 + 0.75 * 1)


# ----------------------------------------------------------------- properties
@given(arm=point_sets, test=point_sets,
       alpha=st.floats(min_value=0.0, max_value=1.0))
def test_reward_invariants(arm, test, alpha):
    """cov_G ⊆ cov_L ⊆ test coverage, and the reward formula holds."""
    global_new = test - arm  # arm history is always a subset of global history
    breakdown = RewardComputer(alpha).compute(mask_of(arm), mask_of(test),
                                              mask_of(global_new))
    assert (points_of(breakdown.global_new) <= points_of(breakdown.local_new)
            <= frozenset(test))
    assert breakdown.value == pytest.approx(
        alpha * breakdown.local_count + (1 - alpha) * breakdown.global_count)
    assert breakdown.value >= 0.0


@given(arm=point_sets, test=point_sets)
def test_reward_monotone_in_alpha_when_local_exceeds_global(arm, test):
    """More α shifts weight toward the (larger) local component."""
    global_new = 0
    low = RewardComputer(0.1).compute(mask_of(arm), mask_of(test), global_new)
    high = RewardComputer(0.9).compute(mask_of(arm), mask_of(test), global_new)
    assert high.value >= low.value


# ------------------------------------------------------------- point weights
class TestPointWeights:
    def test_no_weights_reproduces_plain_counts(self):
        unweighted = RewardComputer(0.25)
        weighted = RewardComputer(0.25, point_weights={})
        arm, test = mask_of({"a.x"}), mask_of({"a.x", "b.y", "c.z"})
        assert (weighted.compute(arm, test, mask_of({"b.y"})).value
                == unweighted.compute(arm, test, mask_of({"b.y"})).value)

    def test_longest_prefix_match(self):
        computer = RewardComputer(0.25, point_weights={"csr": 2.0,
                                                       "csr.mcause": 5.0})
        assert computer.point_weight("csr.mcause.none->breakpoint") == 5.0
        assert computer.point_weight("csr.mscratch.zero->nonzero") == 2.0
        assert computer.point_weight("decode.addi") == 1.0

    def test_weighted_reward_value(self):
        computer = RewardComputer(0.5, point_weights={"csr": 3.0})
        breakdown = computer.compute(
            0, mask_of({"csr.mepc.zero->code", "decode.addi"}),
            mask_of({"csr.mepc.zero->code"}))
        # local = 3 + 1 = 4 weighted, global = 3 weighted
        assert breakdown.local_value == pytest.approx(4.0)
        assert breakdown.global_value == pytest.approx(3.0)
        assert breakdown.value == pytest.approx(0.5 * 4.0 + 0.5 * 3.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            RewardComputer(0.25, point_weights={"csr": -1.0})

    def test_breakdown_defaults_keep_count_semantics(self):
        breakdown = RewardBreakdown(local_new=mask_of({"a", "b"}),
                                    global_new=mask_of({"a"}), alpha=0.25)
        assert breakdown.local_value is None
        assert breakdown.value == pytest.approx(0.25 * 2 + 0.75 * 1)


# ------------------------------------------------------ hash-seed independence
_WEIGHTED_REWARD = """\
from repro.core.reward import RewardComputer
from repro.isa.scenarios import TrapScenarioGenerator
from repro.rtl.registry import make_dut

dut = make_dut("cva6", coverage_model="csr")
coverage = dut.run(TrapScenarioGenerator(rng=3).generate()).coverage
computer = RewardComputer(0.25, point_weights={
    "csr": 0.1, "trap": 0.3, "decode": 0.7, "icache": 1.3})
breakdown = computer.compute(0, coverage, coverage)
print(coverage.bit_count(), breakdown.value.hex())
"""


def test_weighted_reward_does_not_depend_on_string_hash_seed():
    """Worker processes are separate interpreters with their own string
    hash seed; a weighted reward summed in set order would differ between
    them (float addition is not associative), so a distributed
    ``reward_weights`` grid would not be bit-identical to a serial one."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    outputs = set()
    for hash_seed in ("1", "4", "6"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        result = subprocess.run([sys.executable, "-c", _WEIGHTED_REWARD],
                                env=env, capture_output=True, text=True,
                                timeout=120)
        assert result.returncode == 0, result.stderr
        outputs.add(result.stdout.strip())
    assert len(outputs) == 1, outputs
    points = int(next(iter(outputs)).split()[0])
    assert points > 100  # enough points for the summation order to matter
