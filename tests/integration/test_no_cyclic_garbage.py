"""Runs, trials and batches are freed by reference counting alone.

The fuzzing loop runs with automatic garbage collection paused
(``Fuzzer.run`` and ``execute_batch``, through
:func:`repro.utils.collector.collection_paused`), and every batch that ends
normally freezes what survives it.  Garbage in a reference cycle would
therefore never be freed during a campaign, and a batch-end freeze would
pin it for the life of the worker.  So nothing on the loop path may form a
reference cycle.  Each case here runs with collection disabled and
``gc.DEBUG_SAVEALL`` set, so everything a collection would have freed
lands in ``gc.garbage``; the case fails unless that is empty.  Objects the
case's batches froze are unfrozen before that final collection, so the
freeze cannot hide a cycle.

The cycles this has caught: a caught ``Trap`` that kept its traceback,
``MABFuzz`` handing its scheduler its own bound method, a DUT model that
kept its last executor (which refers back to the model), and a trap
scenario generator that kept a table of its own bound methods.
"""

from __future__ import annotations

import gc
from collections import Counter

import pytest

from repro.api import make_fuzzer
from repro.exec import CampaignEngine, LeaseLostError, SerialBackend
from repro.exec.batching import TrialBatch, TrialTask, execute_batch
from repro.fuzzing.base import Fuzzer, FuzzerConfig
from repro.harness.campaign import CampaignSpec, run_campaign
from repro.isa.instruction import Instruction as I
from repro.isa.program import TestProgram
from repro.rtl.registry import make_dut
from repro.sim.golden import GoldenModel

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

#: the ``cva6-csr`` benchmark's trial shape: trap scenarios, corpus, CSR
#: transition coverage.
CVA6_CSR = CampaignSpec(processor="cva6", fuzzer="mabfuzz:exp3",
                        num_tests=30, trials=1, seed=4, coverage_model="csr",
                        fuzzer_config=FuzzerConfig(scenario="mixed",
                                                   corpus=True))


def set_collection(enabled: bool) -> None:
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture(autouse=True)
def gc_state():
    """Hand the collector back to later tests as each test found it."""
    enabled = gc.isenabled()
    try:
        yield
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.unfreeze()
        set_collection(enabled)


def cyclic_garbage(run) -> Counter:
    """Type counts of what ``run()`` leaves for the cycle collector."""
    gc.unfreeze()
    gc.collect()
    gc.garbage.clear()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    run()
    gc.unfreeze()  # look through the freeze a batch ends with
    gc.collect()
    return Counter(type(obj).__name__ for obj in gc.garbage)


@pytest.mark.parametrize("model", ["golden", "rocket", "cva6", "boom"])
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_program_runs_leave_no_cycles(model, name):
    program = TestProgram(instructions=tuple(PROGRAMS[name]))

    def run():
        runner = GoldenModel() if model == "golden" else make_dut(model)
        result = runner.run(program)
        execution = result if model == "golden" else result.execution
        assert any(record.trap is not None for record in execution.records)

    assert cyclic_garbage(run) == {}


def test_mabfuzz_trial_leaves_no_cycles():
    spec = CampaignSpec(processor="rocket", fuzzer="mabfuzz:ucb",
                        num_tests=30, trials=1, seed=2)
    assert cyclic_garbage(lambda: run_campaign(spec)) == {}


def test_trap_scenario_corpus_trial_leaves_no_cycles():
    assert cyclic_garbage(lambda: run_campaign(CVA6_CSR)) == {}


def test_serial_grid_with_journal_leaves_no_cycles(tmp_path):
    # Covers execute_batch, the batch-end freeze, the wire format and the
    # checkpoint journal, with one corpus-on and one corpus-off spec.
    specs = [CVA6_CSR,
             CampaignSpec(processor="rocket", fuzzer="thehuzz",
                          num_tests=20, trials=2, seed=5)]

    def run():
        engine = CampaignEngine(SerialBackend(),
                                checkpoint_path=str(tmp_path / "grid.jsonl"))
        trial_sets = engine.run_grid(specs)
        assert [len(trials.results) for trials in trial_sets] == [1, 2]

    assert cyclic_garbage(run) == {}


# ------------------------------------------------------ pause and freeze
def small_batch() -> TrialBatch:
    spec = CampaignSpec(processor="rocket", fuzzer="thehuzz", num_tests=5,
                        trials=1, seed=3)
    return TrialBatch(index=0, tasks=(TrialTask(0, 0, spec),))


def small_fuzzer() -> Fuzzer:
    return make_fuzzer("mabfuzz:ucb", make_dut("rocket"), rng=1)


@pytest.mark.parametrize("enabled", [True, False])
def test_fuzzer_run_pauses_collection_and_restores_it(enabled):
    fuzzer = small_fuzzer()
    fuzz_one = fuzzer.fuzz_one
    seen = []

    def observed():
        seen.append(gc.isenabled())
        return fuzz_one()

    fuzzer.fuzz_one = observed
    set_collection(enabled)
    fuzzer.run(3)
    assert seen == [False, False, False]
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_fuzzer_run_restores_collection_when_a_test_raises(enabled):
    fuzzer = small_fuzzer()

    def broken():
        raise RuntimeError("test failed to run")

    fuzzer.fuzz_one = broken
    set_collection(enabled)
    with pytest.raises(RuntimeError, match="failed to run"):
        fuzzer.run(3)
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_execute_batch_pauses_collection_and_freezes_survivors(enabled):
    seen = []
    gc.unfreeze()
    set_collection(enabled)
    payload = execute_batch(small_batch(),
                            on_trial=lambda task: seen.append(gc.isenabled()))
    assert len(payload["results"]) == 1
    assert seen == [False]
    assert gc.isenabled() is enabled
    assert gc.get_freeze_count() > 0


@pytest.mark.parametrize("enabled", [True, False])
def test_execute_batch_that_raises_restores_collection_without_freezing(
        enabled):
    def lease_lost(task):
        raise LeaseLostError("claim file is gone")

    gc.unfreeze()
    set_collection(enabled)
    with pytest.raises(LeaseLostError):
        execute_batch(small_batch(), on_trial=lease_lost)
    assert gc.isenabled() is enabled
    assert gc.get_freeze_count() == 0
