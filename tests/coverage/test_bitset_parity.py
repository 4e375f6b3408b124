"""Bitset <-> string-tuple coverage parity, property-style.

The DUT executor records coverage as an integer bitset
(:mod:`repro.coverage.bitset`); the pre-bitset string-tuple implementation
survives as :class:`~repro.rtl.harness.LegacyCoverageExecutor`.  These
tests run seeded user and trap corpora through *both* emission paths --
for all three DUTs, both coverage models, clean and bug-injected -- and
assert the materialised coverage sets are identical, the traces agree and
everything stays inside the enumerated coverage space.  Any divergence in
the memo keys, mask tables or per-DUT structural emitters shows up here as
a named point diff.  The bitset runs take the fused superblock loop and
the legacy runs the per-step path, so the bug-injected cases also pin the
fused bug hooks to their per-step behaviour.
"""

import pytest

from repro.fuzzing.mutation import MutationEngine
from repro.isa.generator import SeedGenerator
from repro.isa.scenarios import TrapScenarioGenerator
from repro.rtl.registry import make_dut

DUT_NAMES = ("cva6", "rocket", "boom")
COVERAGE_MODELS = ("base", "csr")


def _user_corpus():
    """Seeded user-level programs plus mutants (mutation yields illegal words)."""
    seeds = SeedGenerator(rng=20260729).generate_many(8)
    corpus = list(seeds)
    engine = MutationEngine(rng=20260730)
    for parent in seeds[:4]:
        corpus.extend(engine.mutate(parent, count=2))
    return corpus


def _trap_corpus():
    """Trap/CSR scenario programs driving the mcause/mepc/mtval paths."""
    return TrapScenarioGenerator(rng=20260731).generate_many(6)


@pytest.fixture(scope="module")
def corpora():
    return {"user": _user_corpus(), "trap": _trap_corpus()}


def _run_both(name, corpus, coverage_model="base", bugs=()):
    bitset_dut = make_dut(name, bugs=list(bugs), coverage_model=coverage_model)
    legacy_dut = make_dut(name, bugs=list(bugs), coverage_model=coverage_model)
    legacy_dut.bitset_coverage = False
    assert legacy_dut.coverage_space() == bitset_dut.coverage_space()
    space = bitset_dut.coverage_space()
    for program in corpus:
        fast = bitset_dut.run(program)
        slow = legacy_dut.run(program)
        diff = fast.coverage ^ slow.coverage
        assert not diff, (
            f"{name}/{coverage_model}: bitset and legacy coverage diverged "
            f"on {program.program_id}: {sorted(diff)[:8]}")
        assert fast.coverage <= space
        assert fast.fired_bugs == slow.fired_bugs
        assert fast.bug_effect_steps == slow.bug_effect_steps
        assert ([r.arch_key() for r in fast.execution.records]
                == [r.arch_key() for r in slow.execution.records])


@pytest.mark.parametrize("coverage_model", COVERAGE_MODELS)
@pytest.mark.parametrize("name", DUT_NAMES)
def test_user_corpus_parity(corpora, name, coverage_model):
    _run_both(name, corpora["user"], coverage_model=coverage_model)


@pytest.mark.parametrize("coverage_model", COVERAGE_MODELS)
@pytest.mark.parametrize("name", DUT_NAMES)
def test_trap_corpus_parity(corpora, name, coverage_model):
    _run_both(name, corpora["trap"], coverage_model=coverage_model)


@pytest.mark.parametrize("name", DUT_NAMES)
def test_default_bug_set_parity(corpora, name):
    """Bug hooks (incl. decode substitution) emit identically on both paths,
    under both coverage models."""
    dut = make_dut(name)  # default (full) bug set for the core
    for coverage_model in COVERAGE_MODELS:
        _run_both(name, corpora["user"] + corpora["trap"],
                  coverage_model=coverage_model,
                  bugs=[bug.bug_id for bug in dut.bugs])


def test_legacy_executor_is_selected_by_flag():
    from repro.rtl.harness import DutExecutor, LegacyCoverageExecutor

    dut = make_dut("rocket", bugs=[])
    dut.run(_user_corpus()[0])
    assert type(dut._last_executor) is DutExecutor
    dut.bitset_coverage = False
    dut.run(_user_corpus()[0])
    assert type(dut._last_executor) is LegacyCoverageExecutor
