"""TheHuzz-style mutation engine.

TheHuzz mutates *interesting* tests (tests that covered new points) with a
set of bit- and instruction-level operators chosen according to **static**
weights (the paper's Sec. I/III criticises exactly this static choice; the
PSOFuzz/MAB extension over operators is provided separately in
:mod:`repro.core.mutation_bandit`).

Operators work on the encoded 32-bit words where that is the natural level
(bit flips), and on the decoded instruction where that is more meaningful
(immediate tweaks, operand swaps, instruction insertion/deletion).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.isa.assembler import encode_instruction
from repro.isa.decoder import decode_word
from repro.isa.encoding import InstrFormat, spec_for
from repro.isa.generator import GeneratorConfig, InstructionGenerator
from repro.isa.instruction import Instruction
from repro.isa.program import TestProgram
from repro.utils.rng import WeightedPicker, make_rng, pick

MutationFn = Callable[["MutationEngine", TestProgram, np.random.Generator], TestProgram]


@dataclass(frozen=True)
class MutationOperator:
    """One named mutation operator with its static selection weight."""

    name: str
    weight: float
    fn: MutationFn


def _pick_index(program: TestProgram, rng: np.random.Generator) -> int:
    return int(rng.integers(0, len(program.instructions)))


def _replace(program: TestProgram, index: int, instruction: Instruction,
             op_name: str) -> TestProgram:
    body = list(program.instructions)
    body[index] = instruction
    return program.with_instructions(body, mutation_op=op_name)


# --------------------------------------------------------------- word-level ops
def _flip_bits(engine: "MutationEngine", program: TestProgram,
               rng: np.random.Generator, count: int, name: str) -> TestProgram:
    index = _pick_index(program, rng)
    word = encode_instruction(program.instructions[index])
    for _ in range(count):
        word ^= 1 << int(rng.integers(0, 32))
    return _replace(program, index, decode_word(word), name)


def _op_bitflip1(engine, program, rng):
    return _flip_bits(engine, program, rng, 1, "bitflip1")


def _op_bitflip2(engine, program, rng):
    return _flip_bits(engine, program, rng, 2, "bitflip2")


def _op_bitflip4(engine, program, rng):
    return _flip_bits(engine, program, rng, 4, "bitflip4")


def _op_byteflip(engine, program, rng):
    index = _pick_index(program, rng)
    word = encode_instruction(program.instructions[index])
    byte = int(rng.integers(0, 4))
    word ^= 0xFF << (8 * byte)
    return _replace(program, index, decode_word(word), "byteflip")


def _op_random_word(engine, program, rng):
    index = _pick_index(program, rng)
    word = int(rng.integers(0, 2**32))
    return _replace(program, index, decode_word(word), "random_word")


# --------------------------------------------------------- instruction-level ops
_IMM_FORMATS = (InstrFormat.I, InstrFormat.I_SHIFT, InstrFormat.S,
                InstrFormat.B, InstrFormat.U, InstrFormat.J)


def _imm_limits(fmt: InstrFormat) -> tuple:
    if fmt is InstrFormat.U:
        return 0, (1 << 20) - 1
    if fmt is InstrFormat.J:
        return -(1 << 20), (1 << 20) - 2
    if fmt is InstrFormat.B:
        return -(1 << 12), (1 << 12) - 2
    if fmt is InstrFormat.I_SHIFT:
        return 0, 63
    return -2048, 2047


def _adjust_imm(engine, program, rng, delta_range: int, name: str) -> TestProgram:
    candidates = [i for i, ins in enumerate(program.instructions)
                  if not ins.is_illegal and spec_for(ins.mnemonic).fmt in _IMM_FORMATS]
    if not candidates:
        return _op_bitflip1(engine, program, rng)
    index = pick(rng, candidates)
    instr = program.instructions[index]
    fmt = spec_for(instr.mnemonic).fmt
    low, high = _imm_limits(fmt)
    delta = int(rng.integers(-delta_range, delta_range + 1))
    if fmt in (InstrFormat.B, InstrFormat.J):
        delta *= 4
    new_imm = min(max(instr.imm + delta, low), high)
    return _replace(program, index, instr.with_fields(imm=new_imm), name)


def _op_imm_small(engine, program, rng):
    return _adjust_imm(engine, program, rng, 4, "imm_small")


def _op_imm_large(engine, program, rng):
    return _adjust_imm(engine, program, rng, 512, "imm_large")


def _op_operand_swap(engine, program, rng):
    candidates = [i for i, ins in enumerate(program.instructions)
                  if not ins.is_illegal and spec_for(ins.mnemonic).reads_rs2]
    if not candidates:
        return _op_bitflip1(engine, program, rng)
    index = pick(rng, candidates)
    instr = program.instructions[index]
    return _replace(program, index,
                    instr.with_fields(rs1=instr.rs2, rs2=instr.rs1), "operand_swap")


def _op_rd_change(engine, program, rng):
    candidates = [i for i, ins in enumerate(program.instructions)
                  if not ins.is_illegal and spec_for(ins.mnemonic).writes_rd]
    if not candidates:
        return _op_bitflip1(engine, program, rng)
    index = pick(rng, candidates)
    instr = program.instructions[index]
    return _replace(program, index,
                    instr.with_fields(rd=int(rng.integers(0, 32))), "rd_change")


def _op_opcode_swap(engine, program, rng):
    """Replace an instruction with a random one of the same functional class."""
    index = _pick_index(program, rng)
    instr = program.instructions[index]
    if instr.is_illegal:
        replacement = engine.instruction_generator.random_instruction()
    else:
        cls = spec_for(instr.mnemonic).cls
        replacement = engine.instruction_generator.random_instruction(cls=cls)
    return _replace(program, index, replacement, "opcode_swap")


def _op_instr_insert(engine, program, rng):
    index = _pick_index(program, rng)
    body = list(program.instructions)
    body.insert(index, engine.instruction_generator.random_instruction())
    if len(body) > engine.max_program_length:
        body = body[:engine.max_program_length]
    return program.with_instructions(body, mutation_op="instr_insert")


def _op_instr_delete(engine, program, rng):
    if len(program.instructions) <= engine.min_program_length:
        return _op_bitflip1(engine, program, rng)
    index = _pick_index(program, rng)
    body = list(program.instructions)
    body.pop(index)
    return program.with_instructions(body, mutation_op="instr_delete")


def _op_instr_duplicate(engine, program, rng):
    index = _pick_index(program, rng)
    body = list(program.instructions)
    body.insert(index, body[index])
    if len(body) > engine.max_program_length:
        body = body[:engine.max_program_length]
    return program.with_instructions(body, mutation_op="instr_duplicate")


def _op_instr_swap(engine, program, rng):
    if len(program.instructions) < 2:
        return _op_bitflip1(engine, program, rng)
    i = _pick_index(program, rng)
    j = _pick_index(program, rng)
    body = list(program.instructions)
    body[i], body[j] = body[j], body[i]
    return program.with_instructions(body, mutation_op="instr_swap")


#: TheHuzz's static operator weights (normalised when an engine is built).  The ordering
#: mirrors the relative importance TheHuzz assigns to its opcode/operand/bit
#: mutators; the exact values are not published, so representative constants
#: are used (the ablation bench sweeps them).
DEFAULT_OPERATOR_WEIGHTS: Dict[str, float] = {
    "bitflip1": 0.14,
    "bitflip2": 0.08,
    "bitflip4": 0.06,
    "byteflip": 0.06,
    "random_word": 0.04,
    "imm_small": 0.10,
    "imm_large": 0.08,
    "operand_swap": 0.08,
    "rd_change": 0.08,
    "opcode_swap": 0.12,
    "instr_insert": 0.06,
    "instr_delete": 0.04,
    "instr_duplicate": 0.03,
    "instr_swap": 0.03,
}

_OPERATOR_FUNCTIONS: Dict[str, MutationFn] = {
    "bitflip1": _op_bitflip1,
    "bitflip2": _op_bitflip2,
    "bitflip4": _op_bitflip4,
    "byteflip": _op_byteflip,
    "random_word": _op_random_word,
    "imm_small": _op_imm_small,
    "imm_large": _op_imm_large,
    "operand_swap": _op_operand_swap,
    "rd_change": _op_rd_change,
    "opcode_swap": _op_opcode_swap,
    "instr_insert": _op_instr_insert,
    "instr_delete": _op_instr_delete,
    "instr_duplicate": _op_instr_duplicate,
    "instr_swap": _op_instr_swap,
}


class MutationEngine:
    """Applies weighted mutation operators to interesting tests."""

    def __init__(self,
                 weights: Optional[Dict[str, float]] = None,
                 generator_config: Optional[GeneratorConfig] = None,
                 rng=None,
                 mutants_per_test: int = 4,
                 min_program_length: int = 4,
                 max_program_length: int = 48) -> None:
        if mutants_per_test < 1:
            raise ValueError("mutants_per_test must be >= 1")
        self.rng = make_rng(rng)
        self.mutants_per_test = mutants_per_test
        self.min_program_length = min_program_length
        self.max_program_length = max_program_length
        self.instruction_generator = InstructionGenerator(generator_config, self.rng)
        weight_table = dict(DEFAULT_OPERATOR_WEIGHTS)
        if weights:
            weight_table.update(weights)
        unknown = set(weight_table) - set(_OPERATOR_FUNCTIONS)
        if unknown:
            raise KeyError(f"unknown mutation operators: {sorted(unknown)}")
        self.operators: List[MutationOperator] = [
            MutationOperator(name, weight_table[name], _OPERATOR_FUNCTIONS[name])
            for name in sorted(weight_table)
        ]
        self._picker = WeightedPicker([op.weight for op in self.operators])

    @property
    def operator_names(self) -> List[str]:
        return [op.name for op in self.operators]

    def set_weights(self, weights: Dict[str, float]) -> None:
        """Replace the operator selection weights (used by the MAB-over-operators extension)."""
        self.operators = [
            MutationOperator(op.name, weights.get(op.name, op.weight), op.fn)
            for op in self.operators
        ]
        self._picker = WeightedPicker([op.weight for op in self.operators])

    def pick_operator(self) -> MutationOperator:
        """Draw one operator according to the current weights."""
        return self.operators[self._picker.draw(self.rng)]

    def mutate_once(self, program: TestProgram,
                    operator: Optional[MutationOperator] = None) -> TestProgram:
        """Produce a single mutant of ``program``."""
        chosen = operator or self.pick_operator()
        return chosen.fn(self, program, self.rng)

    def mutate(self, program: TestProgram,
               count: Optional[int] = None) -> List[TestProgram]:
        """Produce ``count`` mutants of ``program`` (default ``mutants_per_test``)."""
        total = self.mutants_per_test if count is None else count
        return [self.mutate_once(program) for _ in range(total)]
