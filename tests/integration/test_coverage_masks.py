"""Coverage stays a mask inside a process, and DUT tables are built once.

Point names are built only where data leaves the process or a person reads
it: wire, journal and corpus payloads, ``CoverageDatabase.covered``,
trial-end metadata and tests.  The fuzzing loop itself hands the DUT run's
mask to the coverage database, the corpus and the bandit, so no test may
expand a mask into names.  The count below is taken on the code object of
``PointBitIndex.points_of`` -- the one function that expands masks -- so
it sees every call however the function is bound or aliased.
"""

import sys

from repro.api import make_fuzzer, make_processor
from repro.core.config import MABFuzzConfig
from repro.coverage.bitset import PointBitIndex, mask_of, points_of
from repro.coverage.points import coverage_point
from repro.fuzzing.base import Fuzzer, FuzzerConfig


def _calls_by_code(codes, fn, *args):
    """Call ``fn(*args)``; return (its result, {code: calls inside it})."""
    calls = dict.fromkeys(codes, 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in calls:
            calls[frame.f_code] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(previous)
    return result, calls


def _count_calls(code, fn, *args):
    """Call ``fn(*args)``; return (its result, calls of ``code`` inside it)."""
    result, calls = _calls_by_code((code,), fn, *args)
    return result, calls[code]


def _expansions_in_fuzz_one(fuzzer, num_tests, monkeypatch):
    """Run ``num_tests`` tests; return the mask expansions made in them."""
    expansions = 0
    fuzz_one = Fuzzer.fuzz_one

    def counted_fuzz_one(self):
        nonlocal expansions
        outcome, calls = _count_calls(PointBitIndex.points_of.__code__,
                                      fuzz_one, self)
        expansions += calls
        return outcome

    monkeypatch.setattr(Fuzzer, "fuzz_one", counted_fuzz_one)
    result = fuzzer.run(num_tests)
    assert result.coverage_count > 0
    return expansions


def test_expansion_counter_sees_bound_aliases():
    # ``points_of`` is a bound method of the global registry, the form
    # every module imports; the counter must see calls made through it.
    mask = mask_of(["test.masks.alias"])
    names, calls = _count_calls(PointBitIndex.points_of.__code__,
                                points_of, mask)
    assert names == {"test.masks.alias"}
    assert calls == 1


def test_rocket_ucb_trial_expands_no_mask(monkeypatch):
    fuzzer = make_fuzzer("mabfuzz:ucb", make_processor("rocket"), rng=1)
    assert _expansions_in_fuzz_one(fuzzer, 100, monkeypatch) == 0


def test_cva6_csr_corpus_trial_expands_no_mask(monkeypatch):
    dut = make_processor("cva6", coverage_model="csr")
    fuzzer = make_fuzzer("mabfuzz:exp3", dut, rng=1,
                         fuzzer_config=FuzzerConfig(scenario="mixed",
                                                    corpus=True),
                         mab_config=MABFuzzConfig())
    assert _expansions_in_fuzz_one(fuzzer, 100, monkeypatch) == 0
    assert fuzzer.corpus.counters["admitted"] > 0


def test_boom_models_share_space_and_tables_built_once():
    """A trial builds a fresh model; it must not rebuild the coverage
    space, its mask or the structural emission tables."""
    first = make_processor("boom")
    space, mask = first.coverage_space(), first.coverage_space_mask()
    tables = first._structural_tables()

    def build_second():
        second = make_processor("boom")
        return (second.coverage_space(), second.coverage_space_mask(),
                second._structural_tables())

    (space2, mask2, tables2), calls = _count_calls(
        coverage_point.__code__, build_second)
    assert calls == 0
    assert space2 is space
    assert mask2 == mask and mask2.bit_count() == len(space)
    assert tables2 is tables
