"""Bandit algorithm interface.

The scheduler only needs three operations from an algorithm: ``select`` an
arm index, ``update`` it with an observed reward, and ``reset_arm`` when the
saturation monitor replaces the arm's seed.  Anything implementing this
interface -- including user-defined policies (see
``examples/custom_bandit.py``) -- plugs into MABFuzz unchanged, which is the
paper's "agnostic to any MAB algorithm" property.
"""

from __future__ import annotations

import abc
from typing import Dict, List

from repro.utils.rng import make_rng, pick


class BanditAlgorithm(abc.ABC):
    """Interface of a K-armed bandit policy with reset support."""

    #: short machine-readable algorithm name.
    name = "bandit"

    def __init__(self, num_arms: int, rng=None) -> None:
        if num_arms < 1:
            raise ValueError("num_arms must be >= 1")
        self.num_arms = num_arms
        self.rng = make_rng(rng)
        self.total_pulls = 0
        self.pull_counts: List[int] = [0] * num_arms

    # ----------------------------------------------------------------- policy
    @abc.abstractmethod
    def select(self) -> int:
        """Return the index of the arm to pull next."""

    @abc.abstractmethod
    def update(self, arm: int, reward: float) -> None:
        """Feed back the reward observed for pulling ``arm``."""

    @abc.abstractmethod
    def reset_arm(self, arm: int) -> None:
        """Treat ``arm`` as a brand-new arm (the paper's reset-arms feature)."""

    # ------------------------------------------------------------------ common
    def _check_arm(self, arm: int) -> None:
        if not 0 <= arm < self.num_arms:
            raise IndexError(f"arm index out of range: {arm}")

    def _record_pull(self, arm: int) -> None:
        self._check_arm(arm)
        self.total_pulls += 1
        self.pull_counts[arm] += 1

    def snapshot(self) -> Dict[str, object]:
        """Diagnostic snapshot of the algorithm's internal state."""
        return {
            "name": self.name,
            "num_arms": self.num_arms,
            "total_pulls": self.total_pulls,
            "pull_counts": list(self.pull_counts),
        }

    # ------------------------------------------------------------------ helpers
    def _argmax_random_tie(self, values) -> int:
        """Argmax with uniformly random tie-breaking (avoids index-0 bias)."""
        best = max(values)
        candidates = [i for i, v in enumerate(values) if v == best]
        if len(candidates) == 1:
            return candidates[0]
        return pick(self.rng, candidates)
