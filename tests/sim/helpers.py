"""Shared helpers for driving the executor in unit tests."""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.isa.assembler import encode_instruction
from repro.isa.compiled import word_block
from repro.isa.instruction import Instruction
from repro.isa.program import TestProgram
from repro.sim.executor import Executor, ExecutorConfig
from repro.sim.golden import GoldenModel
from repro.sim.memory import DEFAULT_LAYOUT, Memory
from repro.sim.state import ArchState
from repro.sim.trace import CommitRecord, ExecutionResult

BASE = DEFAULT_LAYOUT.dram_base
DATA = DEFAULT_LAYOUT.data_base


def execute_one(instr: Instruction,
                regs: Optional[Dict[int, int]] = None,
                memory_values: Optional[Dict[int, Tuple[int, int]]] = None,
                ) -> Tuple[CommitRecord, ArchState, Memory]:
    """Execute a single instruction with prepared register/memory state.

    Args:
        instr: the instruction to execute (placed at the DRAM base).
        regs: initial register values, keyed by register index.
        memory_values: initial memory contents, ``{address: (value, size)}``.

    Returns:
        The commit record, the architectural state after the step and the
        memory (for store inspection).
    """
    memory = Memory()
    memory.load_program_words(BASE, [encode_instruction(instr)])
    if memory_values:
        for address, (value, size) in memory_values.items():
            memory.store(address, value, size)
    state = ArchState(pc=BASE)
    for index, value in (regs or {}).items():
        state.write_reg(index, value)
    executor = Executor(state, memory, ExecutorConfig())
    return step_block(executor), state, memory


def step_block(executor: Executor) -> CommitRecord:
    """Run the word at the executor's pc as a one-entry block; its record."""
    pc = executor.state.pc
    records: list = []
    executor.code_window = (BASE, pc + 4)
    executor.run_block(word_block(executor.memory.fetch_word(pc)), records)
    (record,) = records
    return record


def run_program(instructions: Iterable[Instruction],
                max_steps: Optional[int] = None) -> ExecutionResult:
    """Run a small program on the golden model."""
    program = TestProgram(instructions=tuple(instructions), base_address=BASE)
    return GoldenModel().run(program, max_steps=max_steps)
