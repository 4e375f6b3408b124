"""The MAB scheduler: bandit + arms + reward + saturation monitor.

This is the glue that Fig. 2 of the paper draws around the fuzzer: the
bandit algorithm chooses an arm, the executed test's coverage is turned
into the α-weighted reward, the γ-window monitor decides whether the arm is
depleted, and depleted arms are reset both in the arm set (fresh seed) and
inside the bandit (reset-arms modification).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.core.arms import Arm, ArmSet
from repro.core.bandit.base import BanditAlgorithm
from repro.core.monitor import SaturationMonitor
from repro.core.reward import RewardBreakdown, RewardComputer
from repro.isa.program import TestProgram


@dataclass(frozen=True)
class SchedulerUpdate:
    """What happened when the scheduler processed one test outcome."""

    arm_index: int
    reward: RewardBreakdown
    was_reset: bool
    replacement_seed_id: Optional[str] = None

    @property
    def reward_value(self) -> float:
        return self.reward.value


class MABScheduler:
    """Selects arms with a bandit algorithm and keeps them fresh via resets."""

    def __init__(self,
                 bandit: BanditAlgorithm,
                 arms: ArmSet,
                 reward: RewardComputer,
                 monitor: SaturationMonitor,
                 seed_provider: Callable[[], TestProgram],
                 saturation_metric: str = "global") -> None:
        if bandit.num_arms != len(arms):
            raise ValueError(
                f"bandit schedules {bandit.num_arms} arms but the arm set has {len(arms)}")
        if saturation_metric not in ("global", "local"):
            raise ValueError("saturation_metric must be 'global' or 'local'")
        self.bandit = bandit
        self.arms = arms
        self.reward = reward
        self.monitor = monitor
        self.seed_provider = seed_provider
        self.saturation_metric = saturation_metric
        self.updates: int = 0
        self.reset_log: List[int] = []

    # --------------------------------------------------------------- selection
    def select(self) -> Arm:
        """Ask the bandit for the next arm to pull."""
        return self.arms[self.bandit.select()]

    # ------------------------------------------------------------------ update
    def update(self, arm: Arm, test_coverage: int,
               global_new_points: int) -> SchedulerUpdate:
        """Process one test executed on behalf of ``arm`` (coverage masks)."""
        breakdown = self.reward.compute(arm.local_coverage, test_coverage,
                                        global_new_points)
        arm.record_pull(test_coverage, breakdown.value)
        self.bandit.update(arm.index, breakdown.value)

        monitored = (breakdown.global_count if self.saturation_metric == "global"
                     else breakdown.local_count)
        self.monitor.record(arm.index, monitored)
        self.updates += 1

        was_reset = False
        replacement_id: Optional[str] = None
        if self.monitor.is_saturated(arm.index):
            replacement = self.seed_provider()
            self.arms.reset_arm(arm.index, replacement)
            self.bandit.reset_arm(arm.index)
            self.monitor.clear(arm.index)
            self.reset_log.append(self.updates)
            was_reset = True
            replacement_id = replacement.program_id
        return SchedulerUpdate(arm_index=arm.index, reward=breakdown,
                               was_reset=was_reset,
                               replacement_seed_id=replacement_id)

    # ----------------------------------------------------------------- queries
    @property
    def total_resets(self) -> int:
        return len(self.reset_log)
