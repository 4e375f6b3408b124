"""A program's words are its instructions' encoding, however it was built.

``TestProgram.words()`` is what both models run and what every in-process
cache keys on.  A generator seed assembles its instructions; a mutant is
handed its parent's words with only the changed slots re-encoded; a corpus
entry rebuilds its instructions from the words it stored.  Each path must
keep ``words() == tuple(assemble_program(instructions))``.

The directed cases pin what that invariant alone cannot see.  A bit
operator stores the changed word's decoded encoding, which differs from the
changed word on a ``fence`` with bits 31:28 set.  And the instructions stay
what the operators built: a raw illegal word that happens to decode to a
legal instruction stays illegal, and a ``*w`` shift keeps an immediate
above 31.  Re-deriving either from the words would re-encode to the same
word, yet change what later operators read and draw.
"""

from hypothesis import given, settings, strategies as st

from repro.fuzzing.corpus import CorpusManager
from repro.fuzzing.mutation import MutationEngine
from repro.isa.assembler import assemble_program, encode_instruction
from repro.isa.decoder import decode_word
from repro.isa.generator import SeedGenerator
from repro.isa.instruction import Instruction
from repro.isa.program import TestProgram
from repro.isa.scenarios import MixedSeedGenerator, TrapScenarioGenerator

GENERATORS = (SeedGenerator, TrapScenarioGenerator, MixedSeedGenerator)


def _assert_carries_its_encoding(program):
    assert program.words() == tuple(assemble_program(program.instructions))


class _ScriptedRng:
    """The engine's generator, answering ``integers`` from a script."""

    def __init__(self, *values):
        self._values = list(values)

    def integers(self, low, high):
        value = self._values.pop(0)
        assert low <= value < high
        return value


def _operator(engine, name):
    return next(op for op in engine.operators if op.name == name)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), generator=st.sampled_from(GENERATORS),
       depth=st.integers(1, 3))
def test_every_built_program_carries_its_encoding(seed, generator, depth):
    seed_program = generator(rng=seed).generate()
    _assert_carries_its_encoding(seed_program)
    engine = MutationEngine(rng=seed)
    corpus = CorpusManager(rng=seed)
    for bit, operator in enumerate(engine.operators):
        program = seed_program
        for _ in range(depth):
            program = engine.mutate_once(program, operator)
            _assert_carries_its_encoding(program)
        assert corpus.offer(program, 1 << bit)
    for entry in corpus.entries.values():
        rebuilt = entry.materialize()
        _assert_carries_its_encoding(rebuilt)
        _assert_carries_its_encoding(engine.mutate_once(rebuilt))


def test_bit_operators_store_the_changed_fence_word_re_encoded():
    fence = Instruction("fence", imm=0xFF)
    program = TestProgram(instructions=(fence, Instruction("ecall")))
    word = program.words()[0]
    for name, draws, changed in (
            ("bitflip1", (0, 30), word ^ (1 << 30)),
            ("byteflip", (0, 3), word ^ (0xFF << 24)),
            ("random_word", (0, 0xFFF0000F), 0xFFF0000F)):
        engine = MutationEngine(rng=0)
        engine.rng = _ScriptedRng(*draws)
        child = engine.mutate_once(program, _operator(engine, name))
        decoded = decode_word(changed)
        assert decoded.mnemonic == "fence"
        assert child.instructions[0] is decoded
        assert child.words()[0] == encode_instruction(decoded) != changed
        _assert_carries_its_encoding(child)


def test_an_illegal_slot_whose_word_decodes_stays_illegal():
    nop_word = encode_instruction(Instruction("addi"))
    raw = Instruction.illegal(nop_word)  # as the generator draws it
    assert not decode_word(nop_word).is_illegal
    program = TestProgram(instructions=(
        raw, Instruction("add", rd=1, rs1=2, rs2=3), Instruction("ecall")))
    engine = MutationEngine(rng=0)
    # rd_change picks among the rd-writing slots, so its first draw (0 of
    # one candidate) lands on index 1, never on the illegal slot.
    engine.rng = _ScriptedRng(0, 9)
    child = engine.mutate_once(program, _operator(engine, "rd_change"))
    assert child.instructions[1] == Instruction("add", rd=9, rs1=2, rs2=3)
    assert child.instructions[0] is raw and child.instructions[0].is_illegal
    assert child.words()[0] == nop_word
    _assert_carries_its_encoding(child)


def test_imm_large_keeps_a_w_shift_immediate_above_31():
    program = TestProgram(instructions=(
        Instruction("sraiw", rd=5, rs1=6, imm=31), Instruction("ecall")))
    engine = MutationEngine(rng=0)
    engine.rng = _ScriptedRng(0, 20)  # candidate 0, delta +20
    child = engine.mutate_once(program, _operator(engine, "imm_large"))
    assert child.instructions[0] == Instruction("sraiw", rd=5, rs1=6, imm=51)
    # The word holds the low five bits; decoding it would give imm 19.
    assert child.words()[0] == encode_instruction(
        Instruction("sraiw", rd=5, rs1=6, imm=19))
    _assert_carries_its_encoding(child)
