"""Runs and trials are freed by reference counting, not by the cycle collector.

Garbage in a reference cycle lives until a collection finds it, and
collections run more often the more such garbage a campaign allocates.
Two cycles used to make most of it: a caught ``Trap`` that outlived its
``except`` clause kept its traceback, whose frames kept the executor, its
memory and the run's commit records; and a fuzzer whose bound method the
scheduler held kept its whole trial.  Each test runs with collection
disabled and ``gc.DEBUG_SAVEALL`` set, so everything a collection would
have freed lands in ``gc.garbage``.

What may stay is the ``DutModel._last_executor`` / ``DutExecutor.dut``
pair, one executor per model, which none of these types is part of.
"""

from __future__ import annotations

import gc
from types import FrameType, TracebackType

import pytest

from repro.core.mabfuzz import MABFuzz
from repro.fuzzing.session import FuzzSession
from repro.harness.campaign import CampaignSpec, run_campaign
from repro.isa.exceptions import Trap
from repro.isa.instruction import Instruction as I
from repro.isa.program import TestProgram
from repro.rtl.registry import make_dut
from repro.sim.golden import GoldenModel
from repro.sim.trace import ExecutionResult

FORBIDDEN = (Trap, FrameType, TracebackType, MABFuzz, FuzzSession,
             ExecutionResult)

PROGRAMS = {
    # An access fault between straight-line entries of one block.
    "trap mid-block": [I("addi", rd=1, rs1=0, imm=1),
                       I("lw", rd=2, rs1=0, imm=0),
                       I("addi", rd=3, rs1=1, imm=2),
                       I("addi", rd=4, rs1=3, imm=3)],
    # Illegal word, misaligned branch target and read-only CSR write, each
    # the last entry of its block.
    "trap on a block's last entry": [I("addi", rd=1, rs1=0, imm=1),
                                     I("addi", rd=2, rs1=0, imm=2),
                                     I("beq", rs1=0, rs2=0, imm=6),
                                     I("addi", rd=3, rs1=0, imm=3),
                                     I("addi", rd=4, rs1=0, imm=4),
                                     I("csrrw", rd=5, rs1=1, csr=0xF11),
                                     I("addi", rd=6, rs1=0, imm=6),
                                     I("addi", rd=7, rs1=0, imm=7),
                                     I.illegal(0xFFFF_FFFF)],
    "ends in ecall": [I("addi", rd=1, rs1=0, imm=1),
                      I("addi", rd=2, rs1=1, imm=2),
                      I("ecall")],
}


def cyclic_garbage(run) -> list:
    """What ``run()`` leaves for the cycle collector to free."""
    gc.collect()
    gc.garbage.clear()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def forbidden_types(garbage: list) -> list:
    return sorted({type(obj).__name__ for obj in garbage
                   if isinstance(obj, FORBIDDEN)})


@pytest.mark.parametrize("model", ["golden", "rocket", "cva6", "boom"])
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_program_runs_leave_no_cycles(model, name):
    program = TestProgram(instructions=tuple(PROGRAMS[name]))
    runner = GoldenModel() if model == "golden" else make_dut(model)

    def run():
        result = runner.run(program)
        execution = result if model == "golden" else result.execution
        assert any(record.trap is not None for record in execution.records)

    assert forbidden_types(cyclic_garbage(run)) == []


def test_mabfuzz_trial_leaves_no_cycles():
    spec = CampaignSpec(processor="rocket", fuzzer="mabfuzz:ucb",
                        num_tests=30, trials=1, seed=2)
    garbage = cyclic_garbage(lambda: run_campaign(spec))
    assert forbidden_types(garbage) == []
