"""Name-based bandit construction."""

from __future__ import annotations

from typing import Optional, Tuple, Union

from repro.core.bandit.base import BanditAlgorithm
from repro.core.bandit.baselines import GreedyPolicy, RoundRobinPolicy, UniformRandomPolicy
from repro.core.bandit.epsilon_greedy import EpsilonGreedyBandit
from repro.core.bandit.exp3 import EXP3Bandit
from repro.core.bandit.ucb import UCBBandit
from repro.core.config import MABFuzzConfig

#: Accepted aliases for each algorithm.
_ALIASES = {
    "egreedy": "egreedy",
    "epsilon-greedy": "egreedy",
    "epsilon_greedy": "egreedy",
    "e-greedy": "egreedy",
    "ucb": "ucb",
    "ucb1": "ucb",
    "exp3": "exp3",
    "uniform": "uniform",
    "random": "uniform",
    "roundrobin": "roundrobin",
    "round-robin": "roundrobin",
    "greedy": "greedy",
}


def available_bandits() -> Tuple[str, ...]:
    """Canonical names of the shipped bandit algorithms and baseline policies."""
    return ("egreedy", "ucb", "exp3", "uniform", "roundrobin", "greedy")


def canonical_bandit(algorithm: str) -> str:
    """Canonical name of a bandit name or alias, in any letter case
    (``"UCB1"`` -> ``"ucb"``); ``KeyError`` for an unknown one."""
    key = _ALIASES.get(algorithm.lower())
    if key is None:
        raise KeyError(f"unknown bandit algorithm {algorithm!r}; "
                       f"available: {available_bandits()}")
    return key


def make_bandit(algorithm: Union[str, BanditAlgorithm],
                num_arms: int,
                config: Optional[MABFuzzConfig] = None,
                reward_normalizer: float = 1.0,
                rng=None) -> BanditAlgorithm:
    """Build a bandit by name, or pass an existing instance through.

    Args:
        algorithm: canonical name / alias, or a ready :class:`BanditAlgorithm`.
        num_arms: number of arms the policy must schedule.
        config: MABFuzz configuration providing ε, η and the UCB multiplier.
        reward_normalizer: |C| used by EXP3's reward normalisation.
        rng: seed or generator for the policy's internal randomness.
    """
    if isinstance(algorithm, BanditAlgorithm):
        if algorithm.num_arms != num_arms:
            raise ValueError(
                f"bandit has {algorithm.num_arms} arms but {num_arms} are required")
        return algorithm
    config = config or MABFuzzConfig(num_arms=num_arms)
    key = canonical_bandit(algorithm)
    if key == "egreedy":
        return EpsilonGreedyBandit(num_arms, epsilon=config.epsilon, rng=rng)
    if key == "ucb":
        return UCBBandit(num_arms, exploration=config.ucb_exploration, rng=rng)
    if key == "exp3":
        return EXP3Bandit(num_arms, eta=config.eta,
                          reward_normalizer=reward_normalizer, rng=rng)
    if key == "uniform":
        return UniformRandomPolicy(num_arms, rng=rng)
    if key == "roundrobin":
        return RoundRobinPolicy(num_arms, rng=rng)
    return GreedyPolicy(num_arms, rng=rng)
