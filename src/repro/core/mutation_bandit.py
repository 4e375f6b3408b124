"""MAB over mutation operators (the Sec. V "other avenues" extension).

The paper's discussion section suggests applying MAB algorithms to the
choice of *mutation operator* instead of (or in addition to) the choice of
seed.  :class:`MutationBanditFuzzer` implements that avenue on top of the
TheHuzz loop: mutation operators are arms of an EXP3/UCB/ε-greedy bandit,
and an operator is rewarded when a mutant it produced later covers new
points.  The corresponding ablation bench compares it against the static
operator weights of plain TheHuzz.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from repro.core.bandit.base import BanditAlgorithm
from repro.core.bandit.factory import make_bandit
from repro.core.config import MABFuzzConfig
from repro.fuzzing.base import FuzzerConfig
from repro.fuzzing.results import TestOutcome
from repro.fuzzing.thehuzz import TheHuzzFuzzer
from repro.isa.program import TestProgram
from repro.rtl.harness import DutModel
from repro.utils.rng import derive_rng


class MutationBanditFuzzer(TheHuzzFuzzer):
    """TheHuzz with a bandit choosing the mutation operator for every mutant.

    The fuzzing loop is byte-for-byte TheHuzz (FIFO pool, interesting
    tests spawn mutants) except that each mutant's operator is selected by
    a bandit over the 14 operators of
    :class:`~repro.fuzzing.mutation.MutationEngine` instead of the static
    published weights.  The reward signal closes one iteration later: when
    a mutant is executed, the operator that *produced* it (recorded in
    ``TestProgram.mutation_op``) is credited with the number of new
    coverage points the mutant reached.

    Corpus mode composes transparently: the inherited ``_next_test``
    restocks a dry pool from corpus draws, and every executed test is
    offered to the corpus by the base class
    (see :mod:`repro.fuzzing.corpus`).

    Args:
        dut: the device-under-test model to fuzz.
        algorithm: bandit algorithm name (``"exp3"``, ``"ucb"``,
            ``"egreedy"``) or a pre-built :class:`BanditAlgorithm`.
        mab_config: bandit hyper-parameters (only the algorithm-specific
            fields are read; arm count is the operator count).
        config: shared :class:`FuzzerConfig` (pool sizes, scenario,
            corpus knob).
        rng: seed or generator for the fuzzer's derived RNG streams.
    """

    def __init__(self,
                 dut: DutModel,
                 algorithm: Union[str, BanditAlgorithm] = "exp3",
                 mab_config: Optional[MABFuzzConfig] = None,
                 config: Optional[FuzzerConfig] = None,
                 rng=None) -> None:
        super().__init__(dut, config, rng)
        self.mab_config = mab_config or MABFuzzConfig()
        self.operator_names = list(self.mutation_engine.operator_names)
        self._operator_index = {name: i for i, name in enumerate(self.operator_names)}
        self.bandit = make_bandit(
            algorithm,
            num_arms=len(self.operator_names),
            config=self.mab_config,
            reward_normalizer=max(dut.total_coverage_points, 1),
            rng=derive_rng(self.rng, "mutation-bandit"),
        )
        self.name = f"mutation-bandit:{self.bandit.name}"

    # -------------------------------------------------------------- scheduling
    def _mutate_with_bandit(self, program: TestProgram) -> list:
        """Produce ``mutants_per_test`` mutants, one bandit pull per mutant.

        Each pull selects an operator arm; the mutant records the operator
        in its provenance so the delayed reward in ``_after_test`` can
        credit the right arm when the mutant eventually executes.
        """
        mutants = []
        operators = self.mutation_engine.operators
        for _ in range(self.mutation_engine.mutants_per_test):
            index = self.bandit.select()
            operator = operators[index]
            mutants.append(self.mutation_engine.mutate_once(program, operator))
        return mutants

    def _after_test(self, program: TestProgram, outcome: TestOutcome) -> None:
        # Reward the operator that produced this test (seeds have no operator).
        if program.mutation_op is not None:
            index = self._operator_index.get(program.mutation_op)
            if index is not None:
                self.bandit.update(index, float(outcome.new_points.bit_count()))
        if outcome.is_interesting:
            self.pool.push_many(self._mutate_with_bandit(program))

    # ------------------------------------------------------------------ results
    def _result_metadata(self) -> Dict[str, object]:
        metadata = super()._result_metadata()
        metadata.update({
            "algorithm": self.bandit.name,
            "operator_arms": len(self.operator_names),
        })
        return metadata
