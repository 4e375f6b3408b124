"""Tests for the DUT harness: coverage families, executor instrumentation and
the central invariant that a defect-free DUT matches the golden model."""

import hashlib

import pytest

from repro.coverage.bitset import points_of, union
from repro.coverage.points import point_module
from repro.fuzzing.differential import compare_traces
from repro.isa.generator import SeedGenerator
from repro.isa.instruction import Instruction
from repro.rtl.cva6 import CVA6Model
from repro.rtl.harness import (
    ILLEGAL_TABLE,
    INSTR_TABLE,
    ISA_TABLES,
    DutConfig,
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


def _declared(module, *tables):
    """The ``module`` family's points as declared by ``tables``."""
    return {point for point in points_of(union(tables))
            if point_module(point) == module}


class TestCoverageFamilies:
    def test_decode_points_within_space(self):
        space = _declared("decode", INSTR_TABLE, ILLEGAL_TABLE)
        (addi,) = _family_points("decode", Instruction("addi", rd=1))
        assert addi in space
        (illegal,) = _family_points("decode", Instruction.illegal(0x7F), 0x7F)
        assert illegal in space

    def test_operand_points_within_space(self):
        space = _declared("operand", INSTR_TABLE)
        for instr in (Instruction("addi", rd=0, rs1=1, imm=-5),
                      Instruction("add", rd=3, rs1=2, rs2=2),
                      Instruction("sd", rs1=1, rs2=1, imm=0),
                      Instruction("jal", rd=1, imm=8)):
            for point in _family_points("operand", instr):
                assert point in space

    def test_common_space_has_expected_modules(self):
        modules = {point_module(p) for p in points_of(union(ISA_TABLES))}
        assert {"decode", "operand", "alu", "branch", "mem", "atomic",
                "trap", "csr", "sys", "fencepath"} <= modules


#: (processor, coverage model, DutConfig or None for the default) ->
#: (space size, 16-byte BLAKE2b of the newline-joined sorted point names).
#: Recorded before the coverage families were folded into their emission
#: tables; a renamed, dropped or swapped point changes the digest even when
#: the size holds.
_SMALL_CONFIG = DutConfig(name="small", icache_sets=4, dcache_sets=4,
                          cache_ways=1, bpred_entries=8, hazard_window=1)
SPACE_PINS = {
    ("rocket", "base", None): (1717, "470303a57f3d40d1b6cf4fd832563511"),
    ("rocket", "csr", None): (1887, "086335ba0845de2d9565e6229d9a1da6"),
    ("cva6", "base", None): (2603, "3b34b0e4f8848288913b36cf5d78375f"),
    ("cva6", "csr", None): (2773, "0096ea7a82b09900f0afae0d0c6e1651"),
    ("boom", "base", None): (3086, "5e6d2ca0314a5d319615ad865917902f"),
    ("boom", "csr", None): (3256, "93e6c0e7fb84c81ec793ed77ff8f9acc"),
    ("cva6", "base", _SMALL_CONFIG): (2317, "6994abc0d6ad487f29d7d49354172fa1"),
}


def _space_digest(space):
    joined = "\n".join(sorted(space)).encode()
    return hashlib.blake2b(joined, digest_size=16).hexdigest()


class TestSpacePins:
    @pytest.mark.parametrize("key", list(SPACE_PINS),
                             ids=lambda key: "-".join(
                                 [key[0], key[1]] + ([key[2].name] if key[2] else [])))
    def test_space_matches_pin(self, key):
        name, coverage_model, config = key
        model_cls = {"rocket": RocketModel, "cva6": CVA6Model,
                     "boom": BoomModel}[name]
        space = model_cls(config, bugs=[],
                          coverage_model=coverage_model).coverage_space()
        assert (len(space), _space_digest(space)) == SPACE_PINS[key]


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
            assert result.coverage_points() <= space
            assert result.coverage_count == len(result.coverage_points())

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
                outside = result.coverage_points() - space
                assert not outside, f"{model_cls.__name__}: {sorted(outside)[:5]}"

    def test_deterministic_coverage(self):
        dut = BoomModel(bugs=[])
        program = _random_seeds(1, seed=9)[0]
        assert dut.run(program).coverage == dut.run(program).coverage
