"""Arms: the unit the MAB agent schedules.

Each arm corresponds to one seed (Sec. III-B): it owns the seed program, a
FIFO pool of tests derived from that seed by mutation, and the mask of
coverage points any of its tests have reached (needed for the *local* part
of the reward).  When the saturation monitor declares an arm depleted, the
arm is *reset*: a fresh seed replaces it and the per-arm history is cleared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from repro.fuzzing.testpool import TestPool
from repro.isa.program import TestProgram


@dataclass
class Arm:
    """One bandit arm: a seed, its test pool and its coverage history."""

    index: int
    seed: TestProgram
    pool: TestPool = field(default_factory=TestPool)
    local_coverage: int = 0
    pulls: int = 0
    total_reward: float = 0.0
    resets: int = 0
    generation: int = 0

    def __post_init__(self) -> None:
        if not len(self.pool):
            self.pool.push(self.seed)

    # ------------------------------------------------------------------ queries
    @property
    def mean_reward(self) -> float:
        """Average reward per pull since the last reset."""
        return self.total_reward / self.pulls if self.pulls else 0.0

    def local_new_points(self, coverage: int) -> int:
        """Mask of the points in ``coverage`` this arm never reached before."""
        return coverage & ~self.local_coverage

    # ------------------------------------------------------------------ updates
    def record_pull(self, coverage: int, reward: float) -> None:
        """Account for one executed test of this arm (``coverage``: its mask)."""
        self.pulls += 1
        self.total_reward += reward
        self.local_coverage |= coverage

    def reset_with(self, new_seed: TestProgram) -> None:
        """Replace the arm with a fresh seed (the paper's arm reset)."""
        self.seed = new_seed
        self.pool.clear()
        self.pool.push(new_seed)
        self.local_coverage = 0
        self.pulls = 0
        self.total_reward = 0.0
        self.resets += 1
        self.generation += 1


class ArmSet:
    """The fixed-size collection of arms scheduled by the bandit."""

    def __init__(self, seeds: Iterable[TestProgram],
                 pool_max: Optional[int] = None) -> None:
        seeds = list(seeds)
        if not seeds:
            raise ValueError("an ArmSet needs at least one seed")
        self.pool_max = pool_max
        self.arms: List[Arm] = [
            Arm(index=i, seed=seed, pool=TestPool(max_size=pool_max))
            for i, seed in enumerate(seeds)
        ]

    def __len__(self) -> int:
        return len(self.arms)

    def __iter__(self):
        return iter(self.arms)

    def __getitem__(self, index: int) -> Arm:
        return self.arms[index]

    @property
    def total_resets(self) -> int:
        return sum(arm.resets for arm in self.arms)

    def reset_arm(self, index: int, new_seed: TestProgram) -> Arm:
        """Reset arm ``index`` with ``new_seed`` and return it."""
        arm = self.arms[index]
        arm.reset_with(new_seed)
        return arm

    @classmethod
    def from_generator(cls, seed_generator, num_arms: int,
                       pool_max: Optional[int] = None) -> "ArmSet":
        """Build an arm set from ``num_arms`` freshly generated seeds."""
        if num_arms < 1:
            raise ValueError("num_arms must be >= 1")
        return cls(seed_generator.generate_many(num_arms), pool_max=pool_max)
