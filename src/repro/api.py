"""High-level convenience API.

The functions here are what the examples, benchmarks and README snippets
use: build a processor model by name, build a fuzzer by name (``"thehuzz"``,
``"mabfuzz:ucb"`` ...), and run a quick campaign.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.bandit.factory import canonical_bandit
from repro.core.config import MABFuzzConfig
from repro.core.mabfuzz import MABFuzz
from repro.core.mutation_bandit import MutationBanditFuzzer
from repro.fuzzing.base import Fuzzer, FuzzerConfig
from repro.fuzzing.random_fuzzer import RandomFuzzer
from repro.fuzzing.results import FuzzCampaignResult
from repro.fuzzing.thehuzz import TheHuzzFuzzer
from repro.rtl.harness import DutModel
from repro.rtl.registry import available_duts, make_dut

#: Canonical fuzzer names accepted by :func:`make_fuzzer`.
_FUZZER_NAMES = (
    "thehuzz",
    "random",
    "mabfuzz:egreedy",
    "mabfuzz:ucb",
    "mabfuzz:exp3",
    "mabfuzz:uniform",
    "mabfuzz:roundrobin",
    "mabfuzz:greedy",
    "mutation-bandit:exp3",
    "mutation-bandit:ucb",
    "mutation-bandit:egreedy",
)


def available_processors() -> Tuple[str, ...]:
    """Names of the processor models that can be fuzzed."""
    return available_duts()


def available_fuzzers() -> Tuple[str, ...]:
    """Names accepted by :func:`make_fuzzer`."""
    return _FUZZER_NAMES


def fuzzer_family(name: str) -> Tuple[str, str]:
    """``(family, algorithm)`` of a fuzzer name, as :func:`make_fuzzer`
    reads it.

    Names are case-insensitive.  ``"thehuzz"`` and ``"random"`` take no
    algorithm (``""``); ``"mabfuzz:"`` and ``"mutation-bandit:"`` take
    any bandit name or alias (``"mabfuzz:ucb1"``), returned lowercased.
    ``KeyError`` for a name :func:`make_fuzzer` rejects.
    """
    family, sep, algorithm = name.lower().partition(":")
    if family in ("thehuzz", "random") and not sep:
        return family, ""
    if family in ("mabfuzz", "mutation-bandit") and sep:
        canonical_bandit(algorithm)
        return family, algorithm
    raise KeyError(f"unknown fuzzer {name!r}; available: {available_fuzzers()}")


def make_processor(name: str, bugs=None, config=None,
                   coverage_model: str = "base") -> DutModel:
    """Build a processor model by name (``"cva6"``, ``"rocket"``, ``"boom"``).

    ``bugs=None`` injects the paper's default vulnerabilities for that core.
    ``coverage_model="csr"`` additionally tracks CSR value-class transitions
    (see docs/coverage.md).
    """
    return make_dut(name, config=config, bugs=bugs,
                    coverage_model=coverage_model)


def make_fuzzer(name: str,
                dut: DutModel,
                fuzzer_config: Optional[FuzzerConfig] = None,
                mab_config: Optional[MABFuzzConfig] = None,
                rng=None) -> Fuzzer:
    """Build a fuzzer by name for ``dut``.

    Accepted names: ``"thehuzz"``, ``"random"``, ``"mabfuzz:<algorithm>"``
    (ε-greedy/ucb/exp3 plus the baseline policies) and
    ``"mutation-bandit:<algorithm>"``.
    """
    family, algorithm = fuzzer_family(name)
    if family == "thehuzz":
        return TheHuzzFuzzer(dut, config=fuzzer_config, rng=rng)
    if family == "random":
        return RandomFuzzer(dut, config=fuzzer_config, rng=rng)
    if family == "mabfuzz":
        return MABFuzz(dut, algorithm=algorithm, mab_config=mab_config,
                       config=fuzzer_config, rng=rng)
    return MutationBanditFuzzer(dut, algorithm=algorithm, mab_config=mab_config,
                                config=fuzzer_config, rng=rng)


def quick_campaign(processor: str = "cva6",
                   fuzzer: str = "mabfuzz:ucb",
                   num_tests: int = 200,
                   seed: Optional[int] = 0,
                   bugs=None,
                   fuzzer_config: Optional[FuzzerConfig] = None,
                   mab_config: Optional[MABFuzzConfig] = None,
                   coverage_model: str = "base") -> FuzzCampaignResult:
    """Run a small end-to-end fuzzing campaign and return its result."""
    dut = make_processor(processor, bugs=bugs, coverage_model=coverage_model)
    fuzz = make_fuzzer(fuzzer, dut, fuzzer_config=fuzzer_config,
                       mab_config=mab_config, rng=seed)
    return fuzz.run(num_tests)
