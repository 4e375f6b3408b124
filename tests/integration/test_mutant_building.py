"""The fuzzing loop builds a mutant without whole-program work.

Each executed test makes four mutants, and most of them never run.  A
mutant carries its parent's words with only the changed slot re-encoded,
and the in-process caches key on the word tuple, so inside
``Fuzzer.fuzz_one`` no program is hashed, only seeds are assembled, and a
mutant costs at most one instruction encoding.  The counts are taken on
code objects with the ``sys.setprofile`` counter of
``test_coverage_masks.py``, so they see every call however it is bound.
"""

from repro.api import make_fuzzer, make_processor
from repro.fuzzing.base import Fuzzer
from repro.fuzzing.mutation import MutationEngine
from repro.isa.assembler import assemble_program, encode_instruction
from repro.isa.program import TestProgram
from tests.integration.test_coverage_masks import _calls_by_code

FINGERPRINT = TestProgram.fingerprint.__code__
ASSEMBLE = assemble_program.__code__
ENCODE = encode_instruction.__code__
MUTATE_ONCE = MutationEngine.mutate_once.__code__
CODES = (FINGERPRINT, ASSEMBLE, ENCODE, MUTATE_ONCE)


def test_rocket_ucb_trial_builds_mutants_from_their_parents_words(monkeypatch):
    fuzzer = make_fuzzer("mabfuzz:ucb", make_processor("rocket"), rng=1)
    assert fuzzer.corpus is None
    totals = dict.fromkeys(CODES, 0)
    assembled = []  # (assemble calls, generation of the test run) per test
    encoded_outside = 0  # encodings not made by assemble_program
    fuzz_one = Fuzzer.fuzz_one

    def counted_fuzz_one(self):
        nonlocal encoded_outside
        outcome, calls = _calls_by_code(CODES, fuzz_one, self)
        for code, count in calls.items():
            totals[code] += count
        if calls[ASSEMBLE]:
            assembled.append((calls[ASSEMBLE], outcome.program.generation))
        encoded_outside += (calls[ENCODE]
                            - calls[ASSEMBLE] * len(outcome.program))
        return outcome

    monkeypatch.setattr(Fuzzer, "fuzz_one", counted_fuzz_one)
    metadata = fuzzer.run(100).metadata
    assert totals[FINGERPRINT] == 0
    # Only the seed a test runs is assembled, once.
    assert assembled and set(assembled) == {(1, 0)}
    assert len(assembled) <= metadata["num_arms"] + metadata["total_resets"]
    assert totals[MUTATE_ONCE] >= 400  # four mutants per executed test
    assert encoded_outside <= totals[MUTATE_ONCE]
