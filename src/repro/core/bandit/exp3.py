"""Modified EXP3 (Algorithm 2 of the paper).

EXP3 maintains one weight per arm and samples arms from the mixture of the
normalised weights and a uniform distribution (exploration fraction η).
Two modifications make it suitable for hardware fuzzing:

* rewards are normalised by the total number of coverage points |C| of the
  DUT (line 6 of Algorithm 2), keeping the importance-weighted exponent
  bounded, and
* when an arm is reset its weight is replaced by the *average weight of the
  other arms* (line 10), so the fresh seed starts from a neutral position
  rather than inheriting the depleted arm's history.
"""

from __future__ import annotations

import math
from typing import Dict, List

from repro.core.bandit.base import BanditAlgorithm
from repro.utils.rng import WeightedPicker


class EXP3Bandit(BanditAlgorithm):
    """EXP3 with reward normalisation and reset support."""

    name = "exp3"

    def __init__(self, num_arms: int, eta: float = 0.1,
                 reward_normalizer: float = 1.0, rng=None) -> None:
        super().__init__(num_arms, rng)
        if not 0.0 < eta <= 1.0:
            raise ValueError("eta must be in (0, 1]")
        if reward_normalizer <= 0:
            raise ValueError("reward_normalizer must be positive")
        self.eta = eta
        self.reward_normalizer = reward_normalizer
        self.weights: List[float] = [1.0] * num_arms
        self._last_probabilities: List[float] = [1.0 / num_arms] * num_arms

    # ----------------------------------------------------------------- policy
    def probabilities(self) -> List[float]:
        """Current arm-selection distribution P(a)."""
        total = sum(self.weights)
        uniform = self.eta / self.num_arms
        return [(1.0 - self.eta) * w / total + uniform for w in self.weights]

    def select(self) -> int:
        probabilities = self.probabilities()
        self._last_probabilities = probabilities
        return WeightedPicker.from_probabilities(probabilities).draw(self.rng)

    def update(self, arm: int, reward: float) -> None:
        self._record_pull(arm)
        normalised = reward / self.reward_normalizer
        # When update immediately follows select (the MABFuzz loop), the
        # recomputed distribution equals the one used for sampling, so this
        # is exactly Algorithm 2; recomputing also keeps delayed updates
        # (the mutation-operator extension) well-defined.
        probability = self.probabilities()[arm]
        estimate = normalised / max(probability, 1e-12)
        self.weights[arm] *= math.exp(self.eta * estimate / self.num_arms)
        self._rescale_if_needed()

    def reset_arm(self, arm: int) -> None:
        self._check_arm(arm)
        if self.num_arms == 1:
            self.weights[arm] = 1.0
            return
        others = [w for index, w in enumerate(self.weights) if index != arm]
        self.weights[arm] = sum(others) / len(others)

    # ------------------------------------------------------------------ guard
    def _rescale_if_needed(self, limit: float = 1e12) -> None:
        """Keep weights in a numerically safe range (scale-invariant for P)."""
        largest = max(self.weights)
        if largest > limit:
            self.weights = [w / largest for w in self.weights]

    def snapshot(self) -> Dict[str, object]:
        snap = super().snapshot()
        snap.update({
            "eta": self.eta,
            "reward_normalizer": self.reward_normalizer,
            "weights": list(self.weights),
            "probabilities": self.probabilities(),
        })
        return snap
