"""Abstract fuzzer base class and shared configuration.

A concrete fuzzer only decides *which test to run next* and *what to do with
the outcome*; everything else (seed generation, mutation, execution,
coverage, differential testing, campaign bookkeeping) lives in the shared
plumbing.  This is the boundary at which MABFuzz plugs its MAB scheduler
into an existing fuzzer.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:  # circular at runtime: corpus imports nothing from here,
    # but keeping the import lazy keeps corpus-off startup untouched.
    from repro.fuzzing.corpus import CorpusManager

from repro.fuzzing.mutation import DEFAULT_OPERATOR_WEIGHTS, MutationEngine
from repro.fuzzing.results import FuzzCampaignResult, TestOutcome
from repro.fuzzing.session import FuzzSession
from repro.isa.generator import GeneratorConfig
from repro.isa.program import TestProgram
from repro.isa.scenarios import SCENARIOS, make_seed_provider
from repro.rtl.harness import DutModel
from repro.utils.collector import collection_paused
from repro.utils.rng import derive_rng, make_rng


@dataclass(frozen=True)
class FuzzerConfig:
    """Configuration shared by all fuzzers.

    Attributes:
        num_seeds: size of the initial seed set (TheHuzz) / number of arms'
            initial seeds (MABFuzz uses its own ``num_arms``).
        mutants_per_test: how many mutants an interesting test spawns.
        generator_config: configuration of the random seed generator.
        mutation_weights: overrides for the static mutation-operator weights.
        max_program_steps: per-test execution step limit (``None`` = model default).
        scenario: seed workload family -- ``"user"`` (the historical random
            user-level seeds), ``"trap"`` (trap/CSR scenario seeds from
            :mod:`repro.isa.scenarios`) or ``"mixed"`` (alternating, so
            MABFuzz arms split between the two families).
        corpus: enable the coverage-directed corpus
            (:mod:`repro.fuzzing.corpus`): executed tests that reach novel
            coverage are admitted as seeds, and mutation arms draw their
            seeds from the corpus instead of always generating fresh.
            Off by default -- corpus-off campaigns are bit-identical to
            pre-corpus builds.
    """

    num_seeds: int = 10
    mutants_per_test: int = 4
    generator_config: Optional[GeneratorConfig] = None
    mutation_weights: Optional[Dict[str, float]] = None
    max_program_steps: Optional[int] = None
    scenario: str = "user"
    corpus: bool = False

    def __post_init__(self) -> None:
        if self.num_seeds < 1:
            raise ValueError("num_seeds must be >= 1")
        if self.mutants_per_test < 1:
            raise ValueError("mutants_per_test must be >= 1")
        if self.scenario not in SCENARIOS:
            raise ValueError(f"scenario must be one of {SCENARIOS}")
        unknown = sorted(set(self.mutation_weights or ()) - set(DEFAULT_OPERATOR_WEIGHTS))
        if unknown:
            raise ValueError(f"mutation_weights name unknown operators: {unknown}")


class Fuzzer(abc.ABC):
    """Base class for coverage-guided differential fuzzers."""

    #: human-readable fuzzer name (used in results and report tables).
    name = "fuzzer"

    def __init__(self, dut: DutModel, config: Optional[FuzzerConfig] = None,
                 rng=None) -> None:
        self.dut = dut
        self.config = config or FuzzerConfig()
        self.rng = make_rng(rng)
        self.session = FuzzSession(dut)
        # For scenario="user" this builds the exact SeedGenerator the
        # fuzzers always used (same derived rng), so historical campaigns
        # stay bit-identical.
        self.seed_generator = make_seed_provider(
            self.config.scenario, self.config.generator_config,
            derive_rng(self.rng, "seeds"))
        self.mutation_engine = MutationEngine(
            weights=self.config.mutation_weights,
            generator_config=self.config.generator_config,
            rng=derive_rng(self.rng, "mutation"),
            mutants_per_test=self.config.mutants_per_test,
        )
        #: coverage-directed corpus (:class:`~repro.fuzzing.corpus.
        #: CorpusManager`) or ``None`` when ``config.corpus`` is off.  The
        #: corpus RNG is derived *last* and only when enabled, so
        #: corpus-off campaigns keep their historical RNG streams.
        self.corpus: Optional["CorpusManager"] = None
        self._corpus_seeded = 0
        self._corpus_fresh = 0
        #: mask of the grid-globally novel points of the last executed
        #: test (corpus mode only) -- the corpus-aware reward signal for
        #: schedulers.
        self._corpus_novel = 0
        if self.config.corpus:
            from repro.fuzzing.corpus import CorpusManager
            self.corpus = CorpusManager(rng=derive_rng(self.rng, "corpus"))

    # -------------------------------------------------------------- scheduling
    @abc.abstractmethod
    def _next_test(self) -> TestProgram:
        """Select the next test program to execute."""

    @abc.abstractmethod
    def _after_test(self, program: TestProgram, outcome: TestOutcome) -> None:
        """React to the outcome of an executed test (mutate, update state ...)."""

    # -------------------------------------------------------------- corpus mode
    def on_corpus_state(self) -> None:
        """Hook fired after external corpus state is merged into :attr:`corpus`.

        The campaign runner injects accumulated corpus state (from earlier
        trials or other workers) *after* construction; fuzzers that fix
        their seeds in ``__init__`` (MABFuzz arms) override this to
        re-draw them from the corpus.  The default is a no-op.
        """

    def _corpus_seed(self) -> Optional[TestProgram]:
        """Draw a mutated corpus program to use as a fresh seed.

        Returns ``None`` (and counts a fresh seed) when corpus mode is off
        or the corpus is still empty, so call sites can fall back to the
        generator with ``self._corpus_seed() or <fresh>``.
        """
        if self.corpus is None or not self.corpus:
            if self.corpus is not None:
                self._corpus_fresh += 1
            return None
        program = self.corpus.sample()
        if program is None:
            self._corpus_fresh += 1
            return None
        self._corpus_seeded += 1
        return self.mutation_engine.mutate_once(program)

    # ------------------------------------------------------------------ running
    def fuzz_one(self) -> TestOutcome:
        """Execute a single fuzzing iteration."""
        program = self._next_test()
        outcome = self.session.run_test(program)
        if self.corpus is not None:
            # Snapshot grid-global novelty *before* the offer folds this
            # test's coverage into the map: schedulers reward it instead
            # of campaign-local novelty, so inherited state steers arms
            # away from territory earlier trials / other workers charted.
            self._corpus_novel = self.corpus.novel_points(outcome.coverage)
            # Offer every executed test; the manager's novelty gate keeps
            # only programs that extend the global coverage map.
            self.corpus.offer(program, outcome.coverage,
                              scenario=self.config.scenario)
        self._after_test(program, outcome)
        return outcome

    def run(self, num_tests: int,
            metadata: Optional[Dict[str, object]] = None) -> FuzzCampaignResult:
        """Run a campaign of ``num_tests`` tests and return its summary.

        The tests run with automatic garbage collection paused
        (:func:`~repro.utils.collector.collection_paused`): the loop makes
        no cyclic garbage, so collections would only re-walk live objects.
        """
        if num_tests < 1:
            raise ValueError("num_tests must be >= 1")
        start = time.perf_counter()
        with collection_paused():
            for _ in range(num_tests):
                self.fuzz_one()
        elapsed = time.perf_counter() - start
        return self._build_result(num_tests, elapsed, metadata or {})

    # ------------------------------------------------------------------ results
    def _build_result(self, num_tests: int, elapsed: float,
                      metadata: Dict[str, object]) -> FuzzCampaignResult:
        session = self.session
        result_metadata = dict(self._result_metadata())
        result_metadata.update(metadata)
        return FuzzCampaignResult(
            fuzzer_name=self.name,
            dut_name=self.dut.name,
            num_tests=num_tests,
            coverage_curve=session.coverage_db.curve(),
            coverage_count=session.coverage_count,
            total_points=session.total_points,
            bug_detections=dict(session.bug_detections),
            interesting_tests=session.interesting_tests,
            mismatching_tests=session.mismatching_tests,
            elapsed_seconds=elapsed,
            metadata=result_metadata,
        )

    def _result_metadata(self) -> Dict[str, object]:
        """Fuzzer-specific metadata attached to campaign results."""
        metadata = {"num_seeds": self.config.num_seeds,
                "mutants_per_test": self.config.mutants_per_test,
                "scenario": self.config.scenario,
                "coverage_model": self.dut.coverage_model,
                **self.session.family_counts()}
        if self.corpus is not None:
            stats = self.corpus.stats()
            metadata.update({
                "corpus_admitted": stats["admitted"],
                "corpus_rejected": stats["rejected"],
                "corpus_evicted": stats["evicted"],
                "corpus_sampled": stats["sampled"],
                "corpus_entries": stats["entries"],
                "corpus_global_points": stats["global_points"],
                "corpus_seeded": self._corpus_seeded,
                "corpus_fresh": self._corpus_fresh,
            })
        return metadata
