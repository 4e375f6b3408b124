"""MABFuzz: the final formulation of Sec. III-D.

``MABFuzz`` is a drop-in replacement for :class:`~repro.fuzzing.thehuzz.
TheHuzzFuzzer`: it reuses the same seed generator, mutation engine, DUT
session and differential tester, and only replaces the *which test next*
decision with the MAB scheduler.  One fuzzing iteration is exactly Fig. 2:

1. the bandit selects an arm,
2. the oldest pending test of that arm is simulated on the DUT (and the
   golden model, for differential testing),
3. the test is mutated and the mutants are appended to the arm's pool,
4. the coverage feedback is converted to the α-weighted reward and fed back
   to the bandit, and
5. the γ-window monitor resets the arm (fresh seed, reset bandit state)
   if it has stopped producing new coverage.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from repro.core.arms import Arm, ArmSet
from repro.core.bandit.base import BanditAlgorithm
from repro.core.bandit.factory import make_bandit
from repro.core.config import MABFuzzConfig
from repro.core.monitor import SaturationMonitor
from repro.core.reward import RewardComputer
from repro.core.scheduler import MABScheduler
from repro.fuzzing.base import Fuzzer, FuzzerConfig
from repro.fuzzing.results import TestOutcome
from repro.isa.program import TestProgram
from repro.rtl.harness import DutModel
from repro.utils.rng import derive_rng


class MABFuzz(Fuzzer):
    """The MAB-scheduled hardware fuzzer (the paper's contribution)."""

    def __init__(self,
                 dut: DutModel,
                 algorithm: Union[str, BanditAlgorithm] = "ucb",
                 mab_config: Optional[MABFuzzConfig] = None,
                 config: Optional[FuzzerConfig] = None,
                 rng=None) -> None:
        super().__init__(dut, config, rng)
        self.mab_config = mab_config or MABFuzzConfig()
        self.bandit = make_bandit(
            algorithm,
            num_arms=self.mab_config.num_arms,
            config=self.mab_config,
            reward_normalizer=max(dut.total_coverage_points, 1),
            rng=derive_rng(self.rng, "bandit"),
        )
        self.name = f"mabfuzz:{self.bandit.name}"
        self.arms = ArmSet.from_generator(
            self.seed_generator, self.mab_config.num_arms,
            pool_max=self.mab_config.arm_pool_max)
        self.scheduler = MABScheduler(
            bandit=self.bandit,
            arms=self.arms,
            reward=RewardComputer(self.mab_config.alpha,
                                  point_weights=self.mab_config.reward_weights),
            monitor=SaturationMonitor(self.mab_config.gamma),
            # Replacement seed for a saturated arm: always a fresh
            # generation.  Saturation resets are the scheduler's exploration
            # pump -- an arm is reset precisely because its neighbourhood
            # stopped paying, so restarting it from a corpus draw (a program
            # whose neighbourhood is by definition already charted) would
            # defeat the reset.  Corpus mode leans on this harder, not
            # softer: with the grid-globally novel reward (see _after_test),
            # arms re-charting territory other trials or workers already
            # covered saturate quickly and are pumped toward genuinely
            # unexplored regions.  Measured on this repo's DUT models,
            # corpus-drawn reset seeds cost 60-100 union coverage points per
            # 3-trial grid versus fresh resets.  The provider is the
            # generator's bound method, not one of this fuzzer's: a
            # scheduler holding ``self`` would make each trial a reference
            # cycle.
            seed_provider=self.seed_generator.generate,
            saturation_metric=self.mab_config.saturation_metric,
        )
        self._current_arm: Optional[Arm] = None

    # -------------------------------------------------------------- corpus mode
    def on_corpus_state(self) -> None:
        """Re-seed one arm from injected corpus state.

        Arms are built in ``__init__``, before the campaign runner merges
        state accumulated by earlier trials / other workers.  Once that
        state lands, the *first* arm restarts from a mutated corpus draw
        -- a dedicated exploit arm working the neighbourhood of proven
        programs -- while every other arm keeps its fresh generator seed.
        The bandit arbitrates from there: if the corpus arm's mutants keep
        finding grid-novel points it gets pulled, and if they only re-reach
        known coverage its reward starves and the γ-window resets it to a
        fresh seed.  Keeping the exploit allocation this small is
        deliberate -- corpus mutants mostly re-cover their parent's
        points, and reseeding half the arms measurably *loses* union
        coverage against a corpus-off grid at equal budget.
        """
        if self.corpus is None or not self.corpus:
            return
        seed = self._corpus_seed()
        if seed is not None:
            arm = self.arms[0]
            arm.seed = seed
            arm.pool.clear()
            arm.pool.push(seed)

    # -------------------------------------------------------------- scheduling
    def _next_test(self) -> TestProgram:
        arm = self.scheduler.select()
        self._current_arm = arm
        if not arm.pool:
            # The arm consumed every pending test (possible when the pool cap
            # dropped mutants); refill it with mutants of a corpus draw when
            # available, else of its own seed.
            base = self._corpus_seed() or arm.seed
            arm.pool.push_many(self.mutation_engine.mutate(base))
        return arm.pool.pop()

    def _after_test(self, program: TestProgram, outcome: TestOutcome) -> None:
        arm = self._current_arm
        assert arm is not None, "_after_test called before _next_test"
        # Fig. 2: the executed test is mutated and its children join the
        # selected arm's pool (independently of the reward).
        arm.pool.push_many(self.mutation_engine.mutate(program))
        # Corpus mode swaps the reward's novelty term for *grid-global*
        # novelty (points no earlier trial or other worker reached): arms
        # re-charting inherited territory earn nothing, saturate, and are
        # reset toward unexplored regions.
        new_points = (self._corpus_novel if self.corpus is not None
                      else outcome.new_points)
        self.scheduler.update(arm, outcome.coverage, new_points)
        self._current_arm = None

    # ------------------------------------------------------------------ results
    def _result_metadata(self) -> Dict[str, object]:
        metadata = super()._result_metadata()
        metadata.update({
            "algorithm": self.bandit.name,
            "num_arms": self.mab_config.num_arms,
            "alpha": self.mab_config.alpha,
            "gamma": self.mab_config.gamma,
            "total_resets": self.scheduler.total_resets,
        })
        return metadata
