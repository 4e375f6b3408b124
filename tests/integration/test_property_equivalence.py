"""Property-based cross-model checks.

The key soundness property of the whole substrate: for *any* generated
program, a DUT model with no injected defects commits exactly the same
architectural trace as the golden reference model, and its emitted coverage
stays inside its declared coverage space.  Hypothesis drives the seed
generator (and the mutation engine) with arbitrary RNG seeds to search for
counterexamples.  A seeded corpus drawn the same way is pinned to frozen
run digests in ``tests/sim/test_hotpath_equivalence.py`` (``property_*``).

With bugs injected, the same holds for every run in which no bug fired:
the DUT is the golden model plus bug hooks, so only a bug can make the two
disagree.  ``FuzzSession.run_test`` rests on this and runs the golden
model only where a bug fired; it is checked over generated seeds of every
workload family and their mutants, and over the seeded corpora behind the
``*_buggy`` fixture keys.

Blocks are shared by every program and DUT holding their words, with
the plans and the memoised static coverage the DUTs attach to them: runs
of seeds and their mutants on Rocket, CVA6 and BOOM (hazard windows of 2,
3 and 4), interleaved in one process, must equal runs of the same
programs from cleared memos.

The run loop's steady-state replay is checked the same way: random loops
run with replay and with it neutralised must agree on everything a run
reports (also where BOOM and CVA6 replay more copies than their step cycle
lets the structural emitter cover), a replayed copy must be the period's
own record objects, and seeded Rocket and CVA6 campaigns must keep
replaying a large share of their DUT commits.
"""

import dataclasses
import random
from contextlib import contextmanager
from math import gcd

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.coverage.csr_transitions import COVERAGE_MODELS
from repro.fuzzing.base import FuzzerConfig
from repro.fuzzing.differential import compare_traces
from repro.fuzzing.mutation import MutationEngine
from repro.harness.campaign import CampaignSpec, run_campaign
from repro.isa import csr as csrdefs
from repro.isa.compiled import process_block_table, process_compiled_cache
from repro.isa.encoding import SPECS, InstrClass
from repro.isa.generator import GeneratorConfig, SeedGenerator
from repro.isa.instruction import Instruction
from repro.isa.program import TestProgram
from repro.isa.scenarios import MixedSeedGenerator, TrapScenarioGenerator
from repro.rtl import boom, harness, rocket
from repro.rtl.boom import BoomModel
from repro.rtl.cva6 import CVA6Model
from repro.rtl.harness import DutExecutor, DutModel
from repro.rtl.registry import make_dut
from repro.rtl.rocket import RocketModel
from repro.sim.executor import Executor
from repro.sim.golden import GoldenModel
from tests.sim.test_hotpath_equivalence import (
    _bug_corner_programs,
    _hand_built_loops,
    build_corpus,
    build_coverage_corpus,
    build_loop_corpus,
    build_property_corpus,
    build_trap_corpus,
)

_MODELS = {
    "cva6": CVA6Model(bugs=[]),
    "rocket": RocketModel(bugs=[]),
    "boom": BoomModel(bugs=[]),
}
#: every DUT under every coverage model, clean and with its default bugs.
_COVERAGE_DUTS = {
    (name, coverage_model, buggy): make_dut(
        name, bugs=None if buggy else (), coverage_model=coverage_model)
    for name in _MODELS for coverage_model in COVERAGE_MODELS
    for buggy in (False, True)
}
_GOLDEN = GoldenModel()
_SETTINGS = settings(max_examples=25, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@given(seed=st.integers(0, 2**32 - 1),
       model_name=st.sampled_from(sorted(_MODELS)))
@_SETTINGS
def test_clean_dut_equals_golden_on_generated_seeds(seed, model_name):
    program = SeedGenerator(rng=seed).generate()
    golden_result = _GOLDEN.run(program)
    dut_result = _MODELS[model_name].run(program)
    assert compare_traces(golden_result, dut_result.execution) is None


@given(seed=st.integers(0, 2**32 - 1),
       model_name=st.sampled_from(sorted(_MODELS)))
@_SETTINGS
def test_clean_dut_equals_golden_on_mutated_tests(seed, model_name):
    """Equivalence also holds for mutation products (often illegal-heavy)."""
    engine = MutationEngine(rng=seed)
    program = SeedGenerator(rng=seed).generate()
    for _ in range(3):
        program = engine.mutate_once(program)
    golden_result = _GOLDEN.run(program)
    dut_result = _MODELS[model_name].run(program)
    assert compare_traces(golden_result, dut_result.execution) is None


@given(seed=st.integers(0, 2**32 - 1),
       model_name=st.sampled_from(sorted(_MODELS)),
       coverage_model=st.sampled_from(COVERAGE_MODELS),
       buggy=st.booleans(),
       mutations=st.integers(0, 3))
@_SETTINGS
def test_coverage_always_within_declared_space(seed, model_name, coverage_model,
                                               buggy, mutations):
    """Emitted coverage stays inside the space, clean or with bugs."""
    model = _COVERAGE_DUTS[model_name, coverage_model, buggy]
    generator = SeedGenerator(
        GeneratorConfig(illegal_word_prob=0.05), rng=seed)
    program = generator.generate()
    engine = MutationEngine(rng=seed)
    for _ in range(mutations):
        program = engine.mutate_once(program)
    result = model.run(program)
    assert result.coverage
    assert result.coverage_points() <= model.coverage_space()


#: every DUT with its default bugs, under both coverage models.
_BUGGY_DUTS = tuple(dut for (_, _, buggy), dut in _COVERAGE_DUTS.items()
                    if buggy)


def _check_unfired_runs(program: TestProgram, duts) -> int:
    """Run ``program`` on the golden model and each of ``duts``; every run
    in which no bug fired must commit the golden trace.  Returns how many
    runs mismatched (each of them fired a bug)."""
    golden = _GOLDEN.run(program)
    mismatched = 0
    for dut in duts:
        run = dut.run(program)
        mismatch = compare_traces(golden, run.execution)
        assert run.fired_bugs or mismatch is None, (
            f"{dut.name}/{dut.coverage_model}: {program.fingerprint()} "
            f"mismatches with no fired bug: {mismatch.describe()}")
        mismatched += mismatch is not None
    return mismatched


@given(seed=st.integers(0, 2**32 - 1),
       generator=st.sampled_from((SeedGenerator, TrapScenarioGenerator,
                                  MixedSeedGenerator)),
       mutations=st.integers(0, 3))
@_SETTINGS
def test_run_without_fired_bug_equals_golden(seed, generator, mutations):
    """On every DUT with its default bugs, a run in which no bug fired
    commits the golden trace: seeds of every workload family and their
    mutants up to three deep."""
    program = generator(rng=seed).generate()
    engine = MutationEngine(rng=seed)
    for _ in range(mutations):
        program = engine.mutate_once(program)
    _check_unfired_runs(program, _BUGGY_DUTS)


def test_run_without_fired_bug_equals_golden_on_seeded_corpora():
    """The same over every program of the seeded corpora the ``*_buggy``
    fixture keys run, on CVA6 and Rocket with their default bugs (BOOM's
    set is empty).  Bugs fire and mismatch there, so the compare bites."""
    programs = {}
    for program in (build_corpus() + build_trap_corpus()
                    + _bug_corner_programs() + build_coverage_corpus()
                    + build_loop_corpus() + build_property_corpus()):
        programs.setdefault((program.words(), program.base_address), program)
    duts = [dut for dut in _BUGGY_DUTS if dut.bugs]
    mismatched = sum(_check_unfired_runs(program, duts)
                     for program in programs.values())
    assert mismatched > 0


@given(seed=st.integers(0, 2**32 - 1))
@_SETTINGS
def test_golden_minstret_equals_commit_count(seed):
    """The golden model retires exactly one instruction per commit record.

    Programs that architecturally *write* the counter CSRs (csrrw to
    mcycle/minstret is legal machine-mode behaviour) are excluded: for them
    the final counter value is whatever the program wrote.
    """
    from hypothesis import assume

    from repro.isa import csr as csrdefs
    from repro.isa.encoding import InstrClass, spec_for

    program = SeedGenerator(rng=seed).generate()
    touches_counters = any(
        (not instr.is_illegal
         and spec_for(instr.mnemonic).cls is InstrClass.CSR
         and instr.csr in (csrdefs.MCYCLE, csrdefs.MINSTRET))
        for instr in program
    )
    assume(not touches_counters)
    result = _GOLDEN.run(program)
    assert result.final_csrs[csrdefs.MINSTRET] == result.instret


# ---------------------------------------------------------- shared blocks
#: Rocket, CVA6 and BOOM with their default bugs under both coverage
#: models, in the order a shared block meets them: hazard windows of 2, 3
#: and 4 in turn.
_SHARED_DUTS = tuple(make_dut(name, coverage_model=coverage_model)
                     for coverage_model in COVERAGE_MODELS
                     for name in ("rocket", "cva6", "boom"))


def _clear_block_memos() -> None:
    """Empty every per-process memo a DUT run reads: the compiled programs,
    the block table (and with it each block's plans, bug cuts and static
    masks) and the per-word and per-instruction plan memos."""
    process_compiled_cache().clear()
    process_block_table().clear()
    harness._ENTRY_PLANS.clear()
    rocket._PLANS.clear()
    boom._PLANS.clear()


def _run_view(run) -> tuple:
    execution = run.execution
    return (run.coverage, run.fired_bugs, run.bug_effect_steps,
            [record.arch_key() for record in execution.records],
            execution.halt_reason, execution.final_registers,
            execution.final_csrs)


def _assert_shared_blocks_exact(programs) -> None:
    """Every run of ``programs`` on :data:`_SHARED_DUTS`, interleaved in
    one process, equals a run of the same program on the same DUT from
    cleared memos."""
    warm = [[_run_view(dut.run(program)) for dut in _SHARED_DUTS]
            for program in programs]
    for program, views in zip(programs, warm):
        for dut, view in zip(_SHARED_DUTS, views):
            _clear_block_memos()
            assert _run_view(dut.run(program)) == view, (
                dut.name, dut.coverage_model, program.fingerprint())


@given(seed=st.integers(0, 2**32 - 1),
       generator=st.sampled_from((SeedGenerator, TrapScenarioGenerator,
                                  MixedSeedGenerator)),
       mutations=st.integers(0, 3))
@_SETTINGS
def test_shared_blocks_equal_cold_runs(seed, generator, mutations):
    """A seed and its mutants -- which reuse the blocks their mutations
    did not touch -- run on every DUT as they would from cleared memos."""
    program = generator(rng=seed).generate()
    programs = [program]
    engine = MutationEngine(rng=seed)
    for _ in range(mutations):
        program = engine.mutate_once(program)
        programs.append(program)
    _assert_shared_blocks_exact(programs)


def test_block_shared_by_rocket_cva6_and_boom():
    """One program on Rocket, then CVA6, then BOOM: each enters the jump's
    block with an empty window but leaves it with its own window size, and
    the next block reads a distance-3 hazard only a window of 3 or more
    holds."""
    I = Instruction
    program = TestProgram(instructions=(
        I("addi", rd=1, rs1=0, imm=1), I("addi", rd=2, rs1=0, imm=2),
        I("jal", rd=0, imm=4),
        I("add", rd=5, rs1=1, rs2=2), I("add", rd=6, rs1=1, rs2=5),
        I("ecall")))
    _clear_block_memos()
    _assert_shared_blocks_exact([program])


# ------------------------------------------------------------ loop replay
#: registers the random loops write, and the ones they only read.
_LOOP_DST = (5, 6, 7, 8)
_LOOP_SRC = (0, 5, 6, 9, 12, 13)
#: illegal words: all-zero, all-one, and one V2 executes as an add.
_LOOP_ILLEGAL = (0x0000_0000, 0xFFFF_FFFF,
                 (0x04 << 25) | (7 << 20) | (6 << 15) | (5 << 7) | 0x33)
#: CSRs the random loops access: scratch, status and trap CSRs, the
#: retirement counters and their read-only aliases, the unimplemented
#: satp, and two of the debug CSRs V6 breaks on CVA6.
_LOOP_CSRS = (csrdefs.MSCRATCH, csrdefs.MSTATUS, csrdefs.MEPC,
              csrdefs.MINSTRET, csrdefs.MCYCLE, csrdefs.CYCLE, csrdefs.TIME,
              csrdefs.INSTRET, 0x180, 0x7A0, 0x7B0)
#: the retirement counters and their aliases: a period with a CSR
#: instruction on one of them must never replay.
_COUNTER_CSRS = frozenset({csrdefs.MINSTRET, csrdefs.MCYCLE, csrdefs.CYCLE,
                           csrdefs.TIME, csrdefs.INSTRET})
_CSR_MNEMONICS = frozenset(mnemonic for mnemonic, spec in SPECS.items()
                           if spec.cls is InstrClass.CSR)


def _random_loop(seed: int) -> TestProgram:
    """A prefix, a body and a backward branch to the body's first word.

    The prefix sets the read-only registers (x10 the data region, x11 an
    unmapped address, x12/x13 constants).  Most body instructions keep the
    registers periodic, a few break it (a counter, a load of a location the
    body also stores), and the rest cover what the replay must not get
    wrong: traps of several causes, illegal words, fence.i after stores,
    CSR reads and writes (scratch, status and trap CSRs, the retirement
    counters and their aliases, unimplemented and V6 debug CSRs), atomics,
    mul/div, and forward branches.
    """
    rng = random.Random(seed)
    I = Instruction
    dst, src = _LOOP_DST, _LOOP_SRC
    choice = rng.choice
    makers = (
        lambda: I(choice(("add", "sub", "xor", "or", "and", "sltu")),
                  rd=choice(dst), rs1=choice(src), rs2=choice(src)),
        lambda: I(choice(("addi", "xori", "slli")), rd=choice(dst),
                  rs1=choice(src), imm=rng.randrange(1, 8)),
        lambda: I(choice(("mul", "divu", "rem")), rd=choice(dst),
                  rs1=choice(src), rs2=choice(src)),
        lambda: I("addi", rd=choice(dst), rs1=choice(dst), imm=1),
        lambda: I("sd", rs1=10, rs2=choice(src), imm=8 * rng.randrange(4)),
        lambda: I("ld", rd=choice(dst), rs1=10, imm=8 * rng.randrange(4)),
        lambda: I("amoadd.d", rd=choice(dst), rs1=10, rs2=choice(src)),
        lambda: I("ld", rd=choice(dst), rs1=choice((0, 11)), imm=0),
        lambda: I("ebreak"),
        lambda: I.illegal(choice(_LOOP_ILLEGAL)),
        lambda: I("fence.i"),
        lambda: I(choice(("csrrw", "csrrs", "csrrc")), rd=choice((0, 5, 6)),
                  rs1=choice(src), csr=choice(_LOOP_CSRS)),
        lambda: I(choice(("csrrwi", "csrrsi", "csrrci")), rd=choice((0, 5, 6)),
                  imm=rng.randrange(32), csr=choice(_LOOP_CSRS)),
        lambda: I("beq", rs1=choice(src), rs2=choice(src), imm=8),
    )
    weights = (6, 4, 2, 1, 3, 3, 1, 1, 1, 1, 1, 2, 2, 2)
    prefix = [I("lui", rd=10, imm=0x40004),
              I("addi", rd=11, rs1=0, imm=-8),
              I("addi", rd=12, rs1=0, imm=rng.randrange(-16, 16)),
              I("addi", rd=13, rs1=0, imm=rng.randrange(1, 64))]
    body = [maker() for maker in rng.choices(makers, weights,
                                             k=rng.randrange(1, 12))]
    closing = rng.choice((I("jal", rd=0, imm=-4 * len(body)),
                          I("beq", rs1=0, rs2=0, imm=-4 * len(body)),
                          I("bne", rs1=13, rs2=0, imm=-4 * len(body))))
    return TestProgram(instructions=tuple(prefix + body + [closing]))


def _tight_loop(period: int) -> TestProgram:
    """A loop of ``period`` commits (1-4): ``period - 1`` constant writes
    and a jump back to the first, periodic from its first iteration.  Its
    replay starts before BOOM's occupancy bucket saturates (step 3 for
    period 1) and covers the most copies per emitted one."""
    body = [Instruction("addi", rd=5 + i, rs1=0, imm=i + 1)
            for i in range(period - 1)]
    return TestProgram(instructions=tuple(
        body + [Instruction("jal", rd=0, imm=-4 * len(body))]))


@contextmanager
def _replay_neutralised():
    """No two loop snapshots compare equal, so the run loop never replays."""
    with pytest.MonkeyPatch.context() as patch:
        for cls in (Executor, DutExecutor):
            patch.setattr(cls, "periodic_state", lambda self: object())
        yield


def _execution_view(execution) -> tuple:
    return (execution.records, execution.halt_reason,
            execution.final_registers, execution.final_csrs, execution.steps)


def _assert_replay_exact(program: TestProgram, model: DutModel) -> None:
    """Runs of ``program`` with replay and with it neutralised agree on
    everything a run reports, coverage included."""
    golden, dut = _GOLDEN.run(program), model.run(program)
    with _replay_neutralised():
        golden_simulated, dut_simulated = _GOLDEN.run(program), model.run(program)
    assert _execution_view(golden) == _execution_view(golden_simulated)
    assert _execution_view(dut.execution) == _execution_view(dut_simulated.execution)
    assert dut.coverage == dut_simulated.coverage
    assert dut.fired_bugs == dut_simulated.fired_bugs
    assert dut.bug_effect_steps == dut_simulated.bug_effect_steps


@given(seed=st.integers(0, 2**32 - 1),
       model_name=st.sampled_from(sorted(_MODELS)),
       coverage_model=st.sampled_from(COVERAGE_MODELS),
       buggy=st.booleans())
@_SETTINGS
def test_loop_replay_is_exact(seed, model_name, coverage_model, buggy):
    """Replayed and fully simulated runs of a random loop are identical."""
    _assert_replay_exact(_random_loop(seed),
                         _COVERAGE_DUTS[model_name, coverage_model, buggy])


def test_loop_replay_is_exact_beyond_the_step_cycle():
    """BOOM and CVA6 emit step-indexed structural coverage over only the
    copies one step cycle can tell apart.  Seeded random and tight loops
    replay more copies than that on both, and stay exact."""
    assert BoomModel().step_cycle >= BoomModel.occupancy_buckets
    beyond = {"boom": 0, "cva6": 0}
    replay = DutExecutor.replay_period

    def counted(executor, records, period, copies, counter_steps):
        cycle = executor.dut.step_cycle
        beyond[executor.dut.name] += copies > cycle // gcd(period, cycle)
        return replay(executor, records, period, copies, counter_steps)

    programs = ([_random_loop(seed) for seed in range(20)]
                + [_tight_loop(period) for period in range(1, 5)])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DutExecutor, "replay_period", counted)
        for (name, coverage_model, buggy), model in _COVERAGE_DUTS.items():
            if name in beyond:
                for program in programs:
                    _assert_replay_exact(program, model)
    assert beyond["boom"] > 0 and beyond["cva6"] > 0, beyond


def test_replayed_records_are_the_period_records():
    """Replay appends the period's own record objects, in the golden and
    the DUT trace: a record's step is its index, so a copy's record is
    the one ``period`` commits earlier, and mismatches report indices."""
    program = _hand_built_loops()[1]  # a store and a reload every period
    replays = []
    replay = Executor.replay_period

    def recorded(executor, records, period, copies, counter_steps):
        replays.append((records, len(records), period, copies))
        return replay(executor, records, period, copies, counter_steps)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Executor, "replay_period", recorded)
        golden = _GOLDEN.run(program)
        dut = make_dut("cva6").run(program)  # default bugs V1-V6
    for execution in (golden, dut.execution):
        records = execution.records
        spans = [(first, period, copies)
                 for replayed, first, period, copies in replays
                 if replayed is records]
        assert spans
        for first, period, copies in spans:
            for index in range(first, first + period * copies):
                assert records[index] is records[index - period]
        assert execution.steps == len(records)
    # The golden trace's last replayed commit differs in a copy of the
    # trace: the mismatch names its index, not the period's first one.
    first, period, copies = next(span[1:] for span in replays
                                 if span[0] is golden.records)
    last = first + period * copies - 1
    changed = list(golden.records)
    changed[last] = dataclasses.replace(changed[last], next_pc=0)
    mismatch = compare_traces(
        golden, dataclasses.replace(golden, records=changed))
    assert (mismatch.step, mismatch.field_name) == (last, "next_pc")


def test_replay_leaves_dut_history_as_simulation_does():
    """After a replay the DUT executor's step index, last store and trap
    and every recorded bug effect are where simulating every copy would
    have left them."""
    duts = [make_dut(name, coverage_model="csr") for name in ("cva6", "rocket")]

    def history(program):
        executors = [dut._run_with_executor(program, None)[1] for dut in duts]
        return [(executor.current_step, executor.last_store_step,
                 executor.last_trap_step, executor.last_trap_cause,
                 executor.bug_effects) for executor in executors]

    programs = [_random_loop(seed) for seed in range(40)]
    replayed = [history(program) for program in programs]
    with _replay_neutralised():
        simulated = [history(program) for program in programs]
    assert replayed == simulated


class _ReplaySpy:
    """Counts the commits DUT runs make and the ones they replay, and the
    replayed periods holding a CSR instruction on a retirement counter,
    one on any other CSR, and a bug effect."""

    def __init__(self, patch: pytest.MonkeyPatch) -> None:
        self.commits = 0
        self.replayed = 0
        self.counter_periods = 0
        self.csr_periods = 0
        self.bug_periods = 0
        run, replay = DutModel.run, DutExecutor.replay_period

        def counted_run(model, program, max_steps=None):
            result = run(model, program, max_steps)
            self.commits += result.execution.steps
            return result

        def counted_replay(executor, records, period, copies, counter_steps):
            self.replayed += period * copies
            start = len(records) - period
            fields = {r.word >> 20 for r in records[start:]
                      if r.mnemonic in _CSR_MNEMONICS}
            self.counter_periods += bool(fields & _COUNTER_CSRS)
            self.csr_periods += bool(fields - _COUNTER_CSRS)
            self.bug_periods += any(steps[-1] >= start for steps
                                    in executor.bug_effects.values())
            return replay(executor, records, period, copies, counter_steps)

        patch.setattr(DutModel, "run", counted_run)
        patch.setattr(DutExecutor, "replay_period", counted_replay)


def test_random_loops_exercise_replay():
    """The property above is not vacuous: most random loops replay."""
    with pytest.MonkeyPatch.context() as patch:
        spy = _ReplaySpy(patch)
        dut = make_dut("cva6", coverage_model="csr")
        for seed in range(40):
            dut.run(_random_loop(seed))
    assert spy.replayed >= 0.3 * spy.commits


def test_random_loops_replay_csr_and_bug_active_periods():
    """Random loops on the buggy CVA6 and Rocket replay periods holding a
    CSR instruction on a non-counter CSR and periods in which a bug acts,
    and never a period with a CSR instruction on a retirement counter."""
    with pytest.MonkeyPatch.context() as patch:
        spy = _ReplaySpy(patch)
        for name in ("cva6", "rocket"):
            for coverage_model in COVERAGE_MODELS:
                dut = make_dut(name, coverage_model=coverage_model)
                for seed in range(40):
                    dut.run(_random_loop(seed))
    assert spy.counter_periods == 0
    assert spy.csr_periods >= 10, spy.csr_periods
    assert spy.bug_periods >= 10, spy.bug_periods


def test_rocket_campaign_replays_dut_commits():
    """A seeded Rocket MABFuzz-UCB campaign replays >= 40% of its DUT
    commits: a change that silently stops replay fails here."""
    with pytest.MonkeyPatch.context() as patch:
        spy = _ReplaySpy(patch)
        run_campaign(CampaignSpec("rocket", "mabfuzz:ucb", num_tests=300,
                                  trials=1, seed=1))
    assert spy.commits > 0
    assert spy.replayed >= 0.4 * spy.commits, (
        f"replayed {spy.replayed} of {spy.commits} DUT commits")


def test_cva6_csr_campaign_replays_dut_commits():
    """perfbench's cva6-csr trial at seed 1 (EXP3, CVA6 with V1-V6, csr
    coverage, mixed seeds, corpus on) replays >= 40% of its DUT commits.
    Replaying no period with a CSR instruction or a bug effect gives 34.2%."""
    spec = CampaignSpec("cva6", "mabfuzz:exp3", num_tests=400, trials=1,
                        seed=1000, coverage_model="csr",
                        fuzzer_config=FuzzerConfig(scenario="mixed",
                                                   corpus=True))
    with pytest.MonkeyPatch.context() as patch:
        spy = _ReplaySpy(patch)
        run_campaign(spec, 0)
    assert spy.commits > 0
    assert spy.replayed >= 0.4 * spy.commits, (
        f"replayed {spy.replayed} of {spy.commits} DUT commits")
