"""Random instruction and seed-program generation.

TheHuzz (and therefore MABFuzz) bootstraps each campaign from a set of
*seed* programs made of randomly generated instructions.  Two properties of
the generator matter for reproducing the paper's behaviour:

1. Seeds must be *diverse*: different seeds should emphasise different parts
   of the ISA so that, as in the paper's motivational example, different
   arms reach different regions of the design.  Each seed is generated under
   a randomly drawn *profile* (a weighting over instruction classes).
2. Rare stimuli must remain reachable: illegal encodings, unimplemented-CSR
   accesses, FENCE.I, EBREAK and out-of-range memory accesses all appear
   with small probability, because the paper's vulnerabilities V1-V7 are
   triggered by exactly these events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.isa import csr as csrdefs
from repro.isa.encoding import InstrClass, InstrFormat, mnemonics_of_class, spec_for
from repro.isa.instruction import Instruction
from repro.isa.program import DEFAULT_BASE_ADDRESS, TestProgram, next_program_id
from repro.utils.rng import WeightedPicker, make_rng, pick

#: Default relative weight of each instruction class in generated code.
DEFAULT_CLASS_WEIGHTS: Dict[InstrClass, float] = {
    InstrClass.ARITH: 0.22,
    InstrClass.LOGIC: 0.12,
    InstrClass.SHIFT: 0.08,
    InstrClass.COMPARE: 0.06,
    InstrClass.MUL: 0.06,
    InstrClass.DIV: 0.05,
    InstrClass.LOAD: 0.11,
    InstrClass.STORE: 0.09,
    InstrClass.BRANCH: 0.08,
    InstrClass.JUMP: 0.02,
    InstrClass.CSR: 0.05,
    InstrClass.SYSTEM: 0.02,
    InstrClass.FENCE: 0.02,
    InstrClass.ATOMIC: 0.02,
}


@dataclass(frozen=True)
class GeneratorConfig:
    """Configuration of the random instruction/seed generator.

    Attributes:
        min_instructions: minimum seed length (excluding the preamble).
        max_instructions: maximum seed length (excluding the preamble).
        class_weights: base weighting over instruction classes.
        register_pool: registers favoured as operands (creates hazards).
        wide_register_prob: probability of picking any register instead of
            one from ``register_pool``.
        valid_memory_prob: probability that a load/store uses a base register
            holding a valid data address (set up by the preamble).
        illegal_word_prob: probability of emitting a raw, undecodable word.
        profile_concentration: Dirichlet concentration used when drawing a
            per-seed class profile; lower values give more skewed (more
            diverse) seeds.
        randomize_profile: whether each seed draws its own class profile.
    """

    min_instructions: int = 12
    max_instructions: int = 24
    class_weights: Dict[InstrClass, float] = field(
        default_factory=lambda: dict(DEFAULT_CLASS_WEIGHTS)
    )
    register_pool: Tuple[int, ...] = (5, 6, 7, 12, 13, 14, 28, 29)
    wide_register_prob: float = 0.15
    valid_memory_prob: float = 0.6
    illegal_word_prob: float = 0.01
    profile_concentration: float = 0.6
    randomize_profile: bool = True

    def __post_init__(self) -> None:
        if self.min_instructions < 1:
            raise ValueError("min_instructions must be >= 1")
        if self.max_instructions < self.min_instructions:
            raise ValueError("max_instructions must be >= min_instructions")
        if not self.register_pool:
            raise ValueError("register_pool must not be empty")
        if not all(isinstance(reg, int) and not isinstance(reg, bool)
                   and 0 <= reg <= 31 for reg in self.register_pool):
            raise ValueError("register_pool registers must be ints in 0-31")
        for name in ("wide_register_prob", "valid_memory_prob",
                     "illegal_word_prob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if not (math.isfinite(self.profile_concentration)
                and self.profile_concentration >= 0.0):
            raise ValueError("profile_concentration must be finite and >= 0")
        weights = self.class_weights
        if not weights or not all(isinstance(cls, InstrClass) for cls in weights):
            raise ValueError("class_weights must map InstrClass members to weights")
        if not all(isinstance(w, (int, float)) and math.isfinite(w) and w >= 0
                   for w in weights.values()) or not sum(weights.values()) > 0:
            raise ValueError("class_weights must be finite, >= 0 and not all 0")


#: Start of the valid data region used by the preamble (see repro.sim.memory).
DATA_REGION_BASE = 0x4000_4000
#: Registers the preamble initialises with valid data addresses.
DATA_BASE_REGISTERS = (10, 11)


def preamble_instructions() -> List[Instruction]:
    """Instructions prepended to every seed to set up valid memory bases.

    ``x10`` and ``x11`` are pointed into the modelled data region so that a
    substantial fraction of generated loads/stores hit valid memory, while
    the rest exercise the misaligned/out-of-range exception paths.
    """
    upper = (DATA_REGION_BASE >> 12) & 0xFFFFF
    return [
        Instruction("lui", rd=DATA_BASE_REGISTERS[0], imm=upper),
        Instruction("addi", rd=DATA_BASE_REGISTERS[1],
                    rs1=DATA_BASE_REGISTERS[0], imm=0x100),
        Instruction("addi", rd=28, rs1=0, imm=17),
        Instruction("addi", rd=29, rs1=0, imm=-3),
    ]


class InstructionGenerator:
    """Generates random (but plausibly structured) single instructions."""

    def __init__(self, config: Optional[GeneratorConfig] = None, rng=None) -> None:
        self.config = config or GeneratorConfig()
        self.rng = make_rng(rng)
        self._classes = list(self.config.class_weights)
        self._mnemonics_by_class = {
            cls: mnemonics_of_class(cls) for cls in self._classes
        }
        self._default_classes = self.class_picker(self.config.class_weights)

    # ------------------------------------------------------------------ operands
    def _random_register(self) -> int:
        if self.rng.random() < self.config.wide_register_prob:
            return int(self.rng.integers(0, 32))
        pool = self.config.register_pool
        return int(pool[self.rng.integers(0, len(pool))])

    def _random_imm12(self) -> int:
        choice = self.rng.random()
        if choice < 0.3:
            return int(self.rng.integers(-16, 17))
        if choice < 0.4:
            return 0
        if choice < 0.5:
            return -1
        return int(self.rng.integers(-2048, 2048))

    def _random_branch_offset(self, max_instructions: int = 16) -> int:
        # Mostly short forward branches so programs keep making progress.
        magnitude = int(self.rng.integers(1, max_instructions + 1)) * 4
        if self.rng.random() < 0.2:
            return -magnitude
        return magnitude

    def _random_csr(self) -> int:
        # Performance-counter CSRs are favoured the way directed CSR tests do
        # in TheHuzz's generator; this also keeps the instret-reading path
        # (the stimulus that exposes V7) reachable at a realistic rate.
        if self.rng.random() < 0.25:
            counters = (csrdefs.MINSTRET, csrdefs.INSTRET, csrdefs.MCYCLE, csrdefs.CYCLE)
            return pick(self.rng, counters)
        return pick(self.rng, csrdefs.GENERATABLE_CSRS)

    # ------------------------------------------------------------- instructions
    def class_picker(self, weights: Dict[InstrClass, float]) -> WeightedPicker:
        """A picker over the instruction classes for one class-weight profile.

        Negative weights count as zero; a profile with no positive weight
        draws every class uniformly.  Build it once per profile and pass it
        to :meth:`random_instruction` for every draw under that profile.
        """
        raw = [max(weights.get(c, 0.0), 0.0) for c in self._classes]
        if sum(raw) <= 0:
            raw = [1.0] * len(raw)
        return WeightedPicker(raw)

    def random_instruction(self, cls: Optional[InstrClass] = None,
                           classes: Optional[WeightedPicker] = None) -> Instruction:
        """Generate one random instruction.

        Args:
            cls: force a specific instruction class (``None`` = draw one).
            classes: class picker from :meth:`class_picker` to draw the
                class with (``None`` = the configured class weights).
        """
        if self.rng.random() < self.config.illegal_word_prob:
            return Instruction.illegal(int(self.rng.integers(0, 2**32)))
        if cls is None:
            cls = self._classes[(classes or self._default_classes).draw(self.rng)]
        mnemonic = pick(self.rng, self._mnemonics_by_class[cls])
        return self._fill_operands(mnemonic)

    def _fill_operands(self, mnemonic: str) -> Instruction:
        spec = spec_for(mnemonic)
        fmt = spec.fmt
        rd = self._random_register()
        rs1 = self._random_register()
        rs2 = self._random_register()
        if fmt is InstrFormat.R:
            return Instruction(mnemonic, rd=rd, rs1=rs1, rs2=rs2)
        if fmt is InstrFormat.I:
            if spec.cls is InstrClass.LOAD or mnemonic == "jalr":
                return self._memory_style(mnemonic, rd=rd)
            return Instruction(mnemonic, rd=rd, rs1=rs1, imm=self._random_imm12())
        if fmt is InstrFormat.I_SHIFT:
            limit = 32 if mnemonic.endswith("w") else 64
            return Instruction(mnemonic, rd=rd, rs1=rs1,
                               imm=int(self.rng.integers(0, limit)))
        if fmt is InstrFormat.S:
            return self._memory_style(mnemonic, rs2=rs2)
        if fmt is InstrFormat.B:
            return Instruction(mnemonic, rs1=rs1, rs2=rs2,
                               imm=self._random_branch_offset())
        if fmt is InstrFormat.U:
            return Instruction(mnemonic, rd=rd, imm=int(self.rng.integers(0, 1 << 20)))
        if fmt is InstrFormat.J:
            return Instruction(mnemonic, rd=rd, imm=self._random_branch_offset(8))
        if fmt is InstrFormat.CSR:
            return Instruction(mnemonic, rd=rd, rs1=rs1, csr=self._random_csr())
        if fmt is InstrFormat.CSR_IMM:
            return Instruction(mnemonic, rd=rd, imm=int(self.rng.integers(0, 32)),
                               csr=self._random_csr())
        if fmt is InstrFormat.FENCE:
            if mnemonic == "fence.i":
                return Instruction(mnemonic)
            return Instruction(mnemonic, imm=0xFF)
        if fmt is InstrFormat.SYSTEM:
            return Instruction(mnemonic)
        if fmt is InstrFormat.AMO:
            instr = self._memory_style(mnemonic, rd=rd, rs2=rs2)
            return instr.with_fields(aq=int(self.rng.integers(0, 2)),
                                     rl=int(self.rng.integers(0, 2)))
        raise AssertionError(f"unhandled format {fmt}")  # pragma: no cover

    def _memory_style(self, mnemonic: str, rd: int = 0, rs2: int = 0) -> Instruction:
        """Build a load/store/jalr/AMO instruction with a plausible address."""
        spec = spec_for(mnemonic)
        if self.rng.random() < self.config.valid_memory_prob:
            rs1 = pick(self.rng, DATA_BASE_REGISTERS)
            # Aligned-ish offsets spread across the data region keep most
            # accesses valid (and spread over cache sets); a sprinkle of odd
            # offsets exercises the misalignment exception paths.
            imm = int(self.rng.integers(0, 250)) * 8
            if self.rng.random() < 0.15:
                imm += int(self.rng.integers(1, 8))
        else:
            rs1 = self._random_register()
            imm = self._random_imm12()
        if spec.fmt is InstrFormat.AMO:
            return Instruction(mnemonic, rd=rd, rs1=rs1, rs2=rs2)
        if spec.fmt is InstrFormat.S:
            return Instruction(mnemonic, rs1=rs1, rs2=rs2, imm=imm)
        return Instruction(mnemonic, rd=rd, rs1=rs1, imm=imm)


class SeedGenerator:
    """Generates seed :class:`TestProgram` objects for a fuzzing campaign."""

    def __init__(self, config: Optional[GeneratorConfig] = None, rng=None) -> None:
        self.config = config or GeneratorConfig()
        self.rng = make_rng(rng)
        self._instr_gen = InstructionGenerator(self.config, self.rng)

    def _draw_profile(self) -> Dict[InstrClass, float]:
        """Draw a per-seed class-weight profile (Dirichlet around the defaults)."""
        if not self.config.randomize_profile:
            return dict(self.config.class_weights)
        classes = list(self.config.class_weights)
        base = np.array([self.config.class_weights[c] for c in classes], dtype=float)
        base = base / base.sum()
        concentration = self.config.profile_concentration
        sample = self.rng.dirichlet(base * len(classes) * concentration + 1e-3)
        return {cls: float(w) for cls, w in zip(classes, sample)}

    def generate(self, profile: Optional[Dict[InstrClass, float]] = None,
                 length: Optional[int] = None) -> TestProgram:
        """Generate one seed program.

        Args:
            profile: explicit class-weight profile; ``None`` draws a random one.
            length: explicit body length; ``None`` draws uniformly from the
                configured range.
        """
        if profile is None:
            profile = self._draw_profile()
        if length is None:
            length = int(self.rng.integers(self.config.min_instructions,
                                           self.config.max_instructions + 1))
        classes = self._instr_gen.class_picker(profile)
        body = [self._instr_gen.random_instruction(classes=classes)
                for _ in range(length)]
        instructions = preamble_instructions() + body
        return TestProgram(
            instructions=tuple(instructions),
            base_address=DEFAULT_BASE_ADDRESS,
            program_id=next_program_id("seed"),
        )

    def generate_many(self, count: int) -> List[TestProgram]:
        """Generate ``count`` seed programs (each with its own profile)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return [self.generate() for _ in range(count)]
