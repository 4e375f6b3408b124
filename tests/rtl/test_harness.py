"""Tests for the DUT harness: coverage families, executor instrumentation and
the central invariant that a defect-free DUT matches the golden model."""

import pytest

from repro.coverage.bitset import points_of
from repro.coverage.points import point_module
from repro.fuzzing.differential import compare_traces
from repro.isa.generator import SeedGenerator
from repro.isa.instruction import Instruction
from repro.rtl.cva6 import CVA6Model
from repro.rtl.harness import (
    DutConfig,
    common_space,
    decode_space,
    operand_space,
    static_instr_mask,
)
from repro.rtl.rocket import RocketModel
from repro.rtl.boom import BoomModel
from repro.sim.golden import GoldenModel


class TestDutConfig:
    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            DutConfig(icache_sets=0)
        with pytest.raises(ValueError):
            DutConfig(hazard_window=-1)


def _family_points(module, instr, word=0):
    """The ``module`` family's points in one instruction's static mask."""
    return {point for point in points_of(static_instr_mask(instr, word))
            if point_module(point) == module}


class TestCoverageFamilies:
    def test_decode_points_within_space(self):
        space = decode_space()
        (addi,) = _family_points("decode", Instruction("addi", rd=1))
        assert addi in space
        (illegal,) = _family_points("decode", Instruction.illegal(0x7F), 0x7F)
        assert illegal in space

    def test_operand_points_within_space(self):
        space = operand_space()
        for instr in (Instruction("addi", rd=0, rs1=1, imm=-5),
                      Instruction("add", rd=3, rs1=2, rs2=2),
                      Instruction("sd", rs1=1, rs2=1, imm=0),
                      Instruction("jal", rd=1, imm=8)):
            for point in _family_points("operand", instr):
                assert point in space

    def test_common_space_has_expected_modules(self):
        modules = {point_module(p) for p in common_space()}
        assert {"decode", "operand", "alu", "branch", "mem", "atomic",
                "trap", "csr", "sys", "fencepath"} <= modules


class TestCoverageSpace:
    def test_space_is_cached_and_frozen(self):
        dut = CVA6Model(bugs=[])
        assert dut.coverage_space() is dut.coverage_space()
        assert isinstance(dut.coverage_space(), frozenset)

    def test_space_sizes_ordered_like_the_paper(self):
        """BOOM has the largest coverage space, CVA6 is in between, as the
        paper's covered-point counts (Fig. 3) suggest."""
        cva6 = CVA6Model(bugs=[]).total_coverage_points
        rocket = RocketModel(bugs=[]).total_coverage_points
        boom = BoomModel(bugs=[]).total_coverage_points
        assert boom > cva6 > 0
        assert boom > rocket > 0

    def test_names(self):
        assert CVA6Model().name == "cva6"
        assert RocketModel().name == "rocket"
        assert BoomModel().name == "boom"


def _random_seeds(count, seed=0):
    return SeedGenerator(rng=seed).generate_many(count)


class TestCleanDutMatchesGolden:
    """The central differential-testing invariant: without injected bugs,
    every DUT produces a commit trace identical to the golden model."""

    @pytest.mark.parametrize("model_cls", [CVA6Model, RocketModel, BoomModel])
    def test_random_programs_match(self, model_cls):
        dut = model_cls(bugs=[])
        golden = GoldenModel()
        for program in _random_seeds(15, seed=21):
            golden_result = golden.run(program)
            dut_result = dut.run(program)
            assert compare_traces(golden_result, dut_result.execution) is None

    def test_directed_program_matches(self, memory_program):
        dut = RocketModel(bugs=[])
        golden_result = GoldenModel().run(memory_program)
        dut_result = dut.run(memory_program)
        assert compare_traces(golden_result, dut_result.execution) is None
        assert dut_result.fired_bugs == frozenset()


class TestDutRunResult:
    def test_coverage_emitted_and_within_space(self):
        dut = CVA6Model(bugs=[])
        space = dut.coverage_space()
        for program in _random_seeds(10, seed=5):
            result = dut.run(program)
            assert result.coverage, "every run must produce some coverage"
            assert result.coverage <= space
            assert result.coverage_count == len(result.coverage)

    def test_run_isolation(self, straightline_program):
        """Coverage and microarchitectural state must not leak across runs."""
        dut = RocketModel(bugs=[])
        first = dut.run(straightline_program)
        second = dut.run(straightline_program)
        assert first.coverage == second.coverage
        assert [r.arch_key() for r in first.execution.records] == \
            [r.arch_key() for r in second.execution.records]

    def test_structural_points_within_space(self):
        for model_cls in (CVA6Model, RocketModel, BoomModel):
            dut = model_cls(bugs=[])
            space = dut.coverage_space()
            for program in _random_seeds(5, seed=33):
                result = dut.run(program)
                outside = result.coverage - space
                assert not outside, f"{model_cls.__name__}: {sorted(outside)[:5]}"

    def test_deterministic_coverage(self):
        dut = BoomModel(bugs=[])
        program = _random_seeds(1, seed=9)[0]
        assert dut.run(program).coverage == dut.run(program).coverage
