"""Tests for random instruction and seed generation."""

import pytest

from repro.isa.decoder import decode_word
from repro.isa.encoding import InstrClass, spec_for
from repro.isa.generator import (
    DATA_BASE_REGISTERS,
    GeneratorConfig,
    InstructionGenerator,
    SeedGenerator,
    preamble_instructions,
)
from repro.isa.program import DEFAULT_BASE_ADDRESS


class TestGeneratorConfig:
    def test_defaults_valid(self):
        config = GeneratorConfig()
        assert config.min_instructions <= config.max_instructions

    def test_invalid_lengths_raise(self):
        with pytest.raises(ValueError):
            GeneratorConfig(min_instructions=0)
        with pytest.raises(ValueError):
            GeneratorConfig(min_instructions=10, max_instructions=5)

    def test_invalid_probability_raises(self):
        with pytest.raises(ValueError):
            GeneratorConfig(illegal_word_prob=1.5)

    @pytest.mark.parametrize("settings", [
        dict(register_pool=()),
        dict(register_pool=(40,), wide_register_prob=0.0),
        dict(register_pool=(5, -1)),
        dict(register_pool=(5, 5.5)),
        dict(wide_register_prob=1.5),
        dict(wide_register_prob=float("nan")),
        dict(valid_memory_prob=-0.2),
        dict(profile_concentration=-1.0),
        dict(profile_concentration=float("nan")),
        dict(profile_concentration=float("inf")),
    ])
    def test_invalid_operand_settings_raise(self, settings):
        with pytest.raises(ValueError):
            GeneratorConfig(**settings)

    def test_boundary_operand_settings_accepted(self):
        GeneratorConfig(register_pool=(0, 31), wide_register_prob=1.0,
                        valid_memory_prob=0.0, profile_concentration=0.0)


class TestInstructionGenerator:
    def test_deterministic_with_seed(self):
        a = [InstructionGenerator(rng=7).random_instruction() for _ in range(20)]
        b = [InstructionGenerator(rng=7).random_instruction() for _ in range(20)]
        assert a == b

    def test_forced_class(self):
        generator = InstructionGenerator(
            GeneratorConfig(illegal_word_prob=0.0), rng=3)
        for _ in range(50):
            instr = generator.random_instruction(cls=InstrClass.BRANCH)
            assert spec_for(instr.mnemonic).cls is InstrClass.BRANCH

    def test_generated_instructions_encode(self):
        generator = InstructionGenerator(rng=11)
        for _ in range(300):
            instr = generator.random_instruction()
            from repro.isa.assembler import encode_instruction

            word = encode_instruction(instr)
            assert 0 <= word < 2**32

    def test_shift_amounts_within_range(self):
        generator = InstructionGenerator(GeneratorConfig(illegal_word_prob=0.0), rng=5)
        for _ in range(200):
            instr = generator.random_instruction(cls=InstrClass.SHIFT)
            limit = 32 if instr.mnemonic.endswith("w") else 64
            if spec_for(instr.mnemonic).fmt.name == "I_SHIFT":
                assert 0 <= instr.imm < limit

    def test_illegal_words_produced_at_high_probability(self):
        generator = InstructionGenerator(GeneratorConfig(illegal_word_prob=1.0), rng=1)
        assert generator.random_instruction().is_illegal

    def test_class_weights_respected(self):
        weights = {cls: 0.0 for cls in InstrClass}
        weights[InstrClass.MUL] = 1.0
        generator = InstructionGenerator(GeneratorConfig(illegal_word_prob=0.0), rng=2)
        classes = generator.class_picker(weights)
        for _ in range(30):
            instr = generator.random_instruction(classes=classes)
            assert spec_for(instr.mnemonic).cls is InstrClass.MUL


class TestPreamble:
    def test_sets_up_data_base_registers(self):
        preamble = preamble_instructions()
        destinations = {i.rd for i in preamble}
        assert set(DATA_BASE_REGISTERS) <= destinations

    def test_preamble_is_legal(self):
        from repro.isa.assembler import encode_instruction

        for instr in preamble_instructions():
            word = encode_instruction(instr)
            assert not decode_word(word).is_illegal


class TestSeedGenerator:
    def test_length_range(self):
        config = GeneratorConfig(min_instructions=5, max_instructions=9)
        generator = SeedGenerator(config, rng=0)
        preamble_len = len(preamble_instructions())
        for _ in range(20):
            seed = generator.generate()
            assert preamble_len + 5 <= len(seed) <= preamble_len + 9

    def test_explicit_length(self):
        generator = SeedGenerator(rng=0)
        seed = generator.generate(length=7)
        assert len(seed) == len(preamble_instructions()) + 7

    def test_base_address(self):
        assert SeedGenerator(rng=0).generate().base_address == DEFAULT_BASE_ADDRESS

    def test_generate_many(self):
        seeds = SeedGenerator(rng=0).generate_many(5)
        assert len(seeds) == 5
        assert len({s.program_id for s in seeds}) == 5

    def test_generate_many_negative_raises(self):
        with pytest.raises(ValueError):
            SeedGenerator(rng=0).generate_many(-1)

    def test_deterministic(self):
        a = SeedGenerator(rng=9).generate()
        b = SeedGenerator(rng=9).generate()
        assert a.words() == b.words()

    def test_seed_diversity(self):
        """Randomised per-seed profiles must produce different seeds."""
        generator = SeedGenerator(rng=4)
        seeds = generator.generate_many(10)
        fingerprints = {s.fingerprint() for s in seeds}
        assert len(fingerprints) == 10

    def test_profiles_skew_class_mix(self):
        """With profile randomisation on, class histograms vary across seeds."""
        generator = SeedGenerator(GeneratorConfig(randomize_profile=True), rng=8)
        histograms = []
        for seed in generator.generate_many(6):
            classes = [spec_for(i.mnemonic).cls for i in seed if not i.is_illegal]
            histograms.append(tuple(sorted(
                (cls.value, classes.count(cls)) for cls in set(classes))))
        assert len(set(histograms)) > 1
