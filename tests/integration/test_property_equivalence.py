"""Property-based cross-model checks.

The key soundness property of the whole substrate: for *any* generated
program, a DUT model with no injected defects commits exactly the same
architectural trace as the golden reference model, and its emitted coverage
stays inside its declared coverage space -- identically on the fused
superblock loop and on the per-step loop, whose coverage emitters are
separate code.  Hypothesis drives the seed generator (and the mutation
engine) with arbitrary RNG seeds to search for counterexamples.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.coverage.csr_transitions import COVERAGE_MODELS
from repro.fuzzing.differential import compare_traces
from repro.fuzzing.mutation import MutationEngine
from repro.isa.compiled import set_superblocks_enabled, superblocks_enabled
from repro.isa.generator import GeneratorConfig, SeedGenerator
from repro.rtl.boom import BoomModel
from repro.rtl.cva6 import CVA6Model
from repro.rtl.registry import make_dut
from repro.rtl.rocket import RocketModel
from repro.sim.golden import GoldenModel

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
    """Emitted coverage stays inside the space, and the per-step loop's
    emitters agree with the fused loop's on coverage, bugs and trace."""
    model = _COVERAGE_DUTS[model_name, coverage_model, buggy]
    generator = SeedGenerator(
        GeneratorConfig(illegal_word_prob=0.05), rng=seed)
    program = generator.generate()
    engine = MutationEngine(rng=seed)
    for _ in range(mutations):
        program = engine.mutate_once(program)
    result = model.run(program)
    assert result.coverage
    assert result.coverage <= model.coverage_space()
    was = superblocks_enabled()
    set_superblocks_enabled(False)
    try:
        per_step = model.run(program)
    finally:
        set_superblocks_enabled(was)
    assert per_step.coverage == result.coverage
    assert per_step.fired_bugs == result.fired_bugs
    assert per_step.bug_effect_steps == result.bug_effect_steps
    assert ([r.arch_key() for r in per_step.execution.records]
            == [r.arch_key() for r in result.execution.records])


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
