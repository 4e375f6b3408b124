"""Tests for the mutation engine and its operators."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.fuzzing.mutation import (
    DEFAULT_OPERATOR_WEIGHTS,
    MutationEngine,
    MutationOperator,
)
from repro.isa.generator import SeedGenerator
from repro.isa.program import TestProgram
from repro.isa.instruction import Instruction


@pytest.fixture
def engine():
    return MutationEngine(rng=3)


@pytest.fixture
def seed_program():
    return SeedGenerator(rng=17).generate()


class TestConfiguration:
    def test_default_operators_all_registered(self, engine):
        assert set(engine.operator_names) == set(DEFAULT_OPERATOR_WEIGHTS)

    def test_unknown_operator_weight_rejected(self):
        with pytest.raises(KeyError):
            MutationEngine(weights={"warp_drive": 1.0})

    def test_invalid_mutants_per_test(self):
        with pytest.raises(ValueError):
            MutationEngine(mutants_per_test=0)

    def test_set_weights_changes_distribution(self, engine):
        only_bitflip = {name: 0.0 for name in engine.operator_names}
        only_bitflip["bitflip1"] = 1.0
        engine.set_weights(only_bitflip)
        for _ in range(20):
            assert engine.pick_operator().name == "bitflip1"

    def test_negative_weights_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.set_weights({name: -1.0 for name in engine.operator_names})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_weights_rejected_before_any_draw(self, engine, bad):
        with pytest.raises(ValueError):
            MutationEngine(weights={"bitflip1": bad})
        with pytest.raises(ValueError):
            engine.set_weights({"bitflip1": bad})


class TestMutationBasics:
    def test_mutate_returns_requested_count(self, engine, seed_program):
        assert len(engine.mutate(seed_program, count=7)) == 7
        assert len(engine.mutate(seed_program)) == engine.mutants_per_test

    def test_children_have_lineage(self, engine, seed_program):
        for child in engine.mutate(seed_program, count=5):
            assert child.parent_id == seed_program.program_id
            assert child.seed_id == seed_program.seed_id
            assert child.generation == 1
            assert child.mutation_op in DEFAULT_OPERATOR_WEIGHTS

    def test_parent_not_modified(self, engine, seed_program):
        original_words = seed_program.words()
        engine.mutate(seed_program, count=20)
        assert seed_program.words() == original_words

    def test_mutants_usually_differ_from_parent(self, engine, seed_program):
        children = engine.mutate(seed_program, count=20)
        differing = sum(child.words() != seed_program.words() for child in children)
        assert differing >= 15

    def test_deterministic_given_seed(self, seed_program):
        a = MutationEngine(rng=5).mutate(seed_program, count=10)
        b = MutationEngine(rng=5).mutate(seed_program, count=10)
        assert [c.words() for c in a] == [c.words() for c in b]

    def test_mutants_are_encodable(self, engine, seed_program):
        program = seed_program
        for _ in range(50):
            program = engine.mutate_once(program)
            words = program.words()
            assert all(0 <= w < 2**32 for w in words)


class TestIndividualOperators:
    def _operator(self, engine, name) -> MutationOperator:
        return next(op for op in engine.operators if op.name == name)

    def test_bitflip_changes_exactly_one_word(self, engine):
        # Use R-type-only programs: every bit of their encoding is significant,
        # so the flipped word survives the decode/re-encode canonicalisation.
        program = TestProgram(instructions=tuple(
            Instruction("add", rd=i % 8 + 1, rs1=2, rs2=3) for i in range(6)))
        operator = self._operator(engine, "bitflip1")
        child = engine.mutate_once(program, operator)
        differences = [
            (a, b) for a, b in zip(program.words(), child.words()) if a != b
        ]
        assert len(differences) == 1
        a, b = differences[0]
        assert bin(a ^ b).count("1") == 1

    def test_instr_insert_grows_program(self, engine, seed_program):
        operator = self._operator(engine, "instr_insert")
        child = engine.mutate_once(seed_program, operator)
        assert len(child) == len(seed_program) + 1

    def test_instr_delete_shrinks_program(self, engine, seed_program):
        operator = self._operator(engine, "instr_delete")
        child = engine.mutate_once(seed_program, operator)
        assert len(child) == len(seed_program) - 1

    def test_instr_delete_respects_minimum(self, engine):
        tiny = TestProgram(instructions=tuple(
            Instruction("addi", rd=1, rs1=1, imm=i) for i in range(4)))
        operator = self._operator(engine, "instr_delete")
        child = engine.mutate_once(tiny, operator)
        assert len(child) == len(tiny)  # falls back to a bit flip

    def test_instr_duplicate(self, engine, seed_program):
        operator = self._operator(engine, "instr_duplicate")
        child = engine.mutate_once(seed_program, operator)
        assert len(child) == len(seed_program) + 1

    def test_opcode_swap_preserves_class(self, engine, seed_program):
        from repro.isa.encoding import spec_for

        operator = self._operator(engine, "opcode_swap")
        for _ in range(10):
            child = engine.mutate_once(seed_program, operator)
            changed = [
                (a, b) for a, b in zip(seed_program.instructions, child.instructions)
                if a != b
            ]
            for old, new in changed:
                if old.is_illegal or new.is_illegal:
                    continue
                assert spec_for(old.mnemonic).cls is spec_for(new.mnemonic).cls

    def test_operand_swap_swaps_sources(self, engine):
        program = TestProgram(instructions=(
            Instruction("add", rd=3, rs1=4, rs2=5),
        ))
        operator = self._operator(engine, "operand_swap")
        child = engine.mutate_once(program, operator)
        mutated = child.instructions[0]
        assert (mutated.rs1, mutated.rs2) == (5, 4)

    def test_imm_mutation_stays_in_range(self, engine, seed_program):
        from repro.isa.encoding import InstrFormat, spec_for

        operator = self._operator(engine, "imm_large")
        program = seed_program
        for _ in range(30):
            program = engine.mutate_once(program, operator)
        for instr in program.instructions:
            if instr.is_illegal:
                continue
            if spec_for(instr.mnemonic).fmt is InstrFormat.I:
                assert -2048 <= instr.imm <= 2047

    def test_length_capped(self, engine):
        program = SeedGenerator(rng=1).generate()
        operator = self._operator(engine, "instr_insert")
        for _ in range(100):
            program = engine.mutate_once(program, operator)
        assert len(program) <= engine.max_program_length


# ----------------------------------------------------------------- properties
@given(st.integers(0, 2**32 - 1), st.integers(0, 200))
@settings(max_examples=60, deadline=None)
def test_any_seed_mutates_without_error(rng_seed, extra):
    """Mutation never raises, regardless of RNG stream or repeated application."""
    engine = MutationEngine(rng=rng_seed)
    program = SeedGenerator(rng=rng_seed).generate()
    for _ in range(5):
        program = engine.mutate_once(program)
    assert len(program.words()) >= 1
