"""MABFuzz configuration.

Defaults follow the paper's experimental setup (Sec. IV-A): 10 arms,
α = 0.25 (a globally-new point is worth 3x an arm-locally-new one),
reset threshold γ = 3, EXP3 learning rate η = 0.1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.utils.wire import OPTIONAL


@dataclass(frozen=True)
class MABFuzzConfig:
    """Hyper-parameters of the MABFuzz scheduling layer.

    Attributes:
        num_arms: number of arms (seeds scheduled concurrently).
        alpha: weight of *arm-locally* new coverage in the reward; the
            complementary ``1 - alpha`` weights *globally* new coverage.
        gamma: saturation window -- an arm is reset after ``gamma``
            consecutive selections without new coverage.  ``None`` disables
            resets (used by the ablation study).
        epsilon: exploration probability of the ε-greedy algorithm.
        eta: learning rate of EXP3.
        ucb_exploration: multiplier on UCB's confidence bonus
            (1.0 reproduces the paper's ``sqrt(2 ln t / N)``).
        saturation_metric: ``"global"`` monitors globally-new points per
            pull (the fuzzer's objective); ``"local"`` monitors arm-locally
            new points.
        arm_pool_max: cap on each arm's pending-test pool.
        reward_weights: optional ``dotted-prefix -> weight`` table applied
            to coverage points inside the reward (longest-prefix match,
            unmatched points weigh 1.0); ``None`` reproduces the paper's
            pure counts.  Used to weight the CSR-transition family above
            plain hit-set points (see docs/coverage.md).
    """

    num_arms: int = 10
    alpha: float = 0.25
    gamma: Optional[int] = 3
    epsilon: float = 0.1
    eta: float = 0.1
    ucb_exploration: float = 1.0
    saturation_metric: str = "global"
    arm_pool_max: Optional[int] = 128
    # Absent in payloads written before the CSR-transition reward weights.
    reward_weights: Optional[Dict[str, float]] = field(default=None, metadata=OPTIONAL)

    def __post_init__(self) -> None:
        if self.num_arms < 1:
            raise ValueError("num_arms must be >= 1")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if self.gamma is not None and self.gamma < 1:
            raise ValueError("gamma must be >= 1 (or None to disable resets)")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must be in (0, 1]")
        if self.saturation_metric not in ("global", "local"):
            raise ValueError("saturation_metric must be 'global' or 'local'")
        if self.arm_pool_max is not None and self.arm_pool_max < 1:
            raise ValueError("arm_pool_max must be >= 1 or None")
        if self.reward_weights is not None:
            for prefix, weight in self.reward_weights.items():
                if weight < 0.0:
                    raise ValueError(
                        f"reward weight for {prefix!r} must be non-negative")
