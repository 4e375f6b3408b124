"""Trap/CSR scenario generation: seeds that deliberately provoke traps.

The default :class:`~repro.isa.generator.SeedGenerator` emits user-level
workloads in which traps are rare accidents (odd offsets, unlucky CSR
addresses).  The paper's bandit is most interesting when arms differ in
*what they can reach*, so this module adds the privileged/trap seed family:
programs built around stimulus groups that architecturally provoke
illegal-instruction, misaligned-access, access-fault, breakpoint and CSR
traps when reached (dependent instructions stay adjacent so the random
filler between groups can never clobber a staged register; a filler
branch can still occasionally jump past a group) -- and to walk the machine CSRs
(mscratch, mtvec, mepc, mcause, mtval) through value-class transitions the
CSR-transition coverage model (:mod:`repro.coverage.csr_transitions`)
observes.

Three seed providers share the ``generate()`` / ``generate_many()``
interface the fuzzers consume:

* :class:`~repro.isa.generator.SeedGenerator` -- the ``"user"`` scenario,
* :class:`TrapScenarioGenerator` -- the ``"trap"`` scenario,
* :class:`MixedSeedGenerator` -- the ``"mixed"`` scenario, alternating the
  two so MABFuzz arms split between user-level and privileged workloads
  (and arm resets keep alternating deterministically).

Pick one with :func:`make_seed_provider`; ``FuzzerConfig.scenario`` is the
configuration surface.
"""

from __future__ import annotations

from typing import List, Optional

from repro.isa import csr as csrdefs
from repro.isa.generator import (
    DATA_BASE_REGISTERS,
    GeneratorConfig,
    InstructionGenerator,
    SeedGenerator,
    preamble_instructions,
)
from repro.isa.instruction import Instruction
from repro.isa.program import DEFAULT_BASE_ADDRESS, TestProgram, next_program_id
from repro.utils.rng import make_rng, pick

#: scenario names accepted by ``FuzzerConfig.scenario``.
SCENARIOS = ("user", "trap", "mixed")


class TrapScenarioGenerator:
    """Generates seed programs that deterministically reach trap handlers.

    Every seed focuses on one *scenario kind* (drawn round-robin-free from
    the rng) and interleaves its trap stimuli with user-level filler so
    mutation still has ordinary instructions to work with:

    ==============  ========================================================
    kind             guaranteed stimuli
    ==============  ========================================================
    ``illegal``      undecodable raw words, reserved SYSTEM encodings
    ``misaligned``   odd-offset loads/stores, branch/jalr to pc % 4 != 0
    ``access``       loads/stores far outside the DRAM window
    ``csr``          unimplemented-CSR access, read-only writes, and
                     machine-CSR write walks (mscratch/mtvec/mepc/mcause/
                     mtval) driving CSR-transition coverage
    ``system``       ebreak, mret after seeding mepc, wfi, trailing ecall
    ==============  ========================================================
    """

    #: scenario kinds a seed can focus on.
    KINDS = ("illegal", "misaligned", "access", "csr", "system")

    def __init__(self, config: Optional[GeneratorConfig] = None, rng=None) -> None:
        self.config = config or GeneratorConfig()
        self.rng = make_rng(rng)
        self._filler = InstructionGenerator(self.config, self.rng)

    # ------------------------------------------------------------------ helpers
    def _register(self) -> int:
        pool = self.config.register_pool
        return int(pool[self.rng.integers(0, len(pool))])

    def _illegal_word(self) -> int:
        """A 32-bit word whose low opcode bits cannot decode."""
        word = int(self.rng.integers(0, 2**32))
        # Clearing bit 1 leaves bits [1:0] in the reserved/compressed space,
        # which no spec in the modelled ISA occupies.
        return word & ~0x2

    # ------------------------------------------------------------- stimuli kinds
    def _illegal_stimuli(self) -> List[List[Instruction]]:
        groups = [[Instruction.illegal(self._illegal_word())],
                  [Instruction.illegal(self._illegal_word())]]
        # A reserved SYSTEM encoding: csrrw/csrrs against an address drawn
        # from the unimplemented set traps in a correct design (and is the
        # exact stimulus behind CVA6's V6).
        address = pick(self.rng, sorted(csrdefs.UNIMPLEMENTED_CSRS))
        groups.append([Instruction("csrrw", rd=self._register(),
                                   rs1=self._register(), csr=address)])
        return groups

    def _misaligned_stimuli(self) -> List[List[Instruction]]:
        base = pick(self.rng, DATA_BASE_REGISTERS)
        odd = 1 + 2 * int(self.rng.integers(0, 4))
        groups = [
            [Instruction("lw", rd=self._register(), rs1=base, imm=odd)],
            [Instruction("sh", rs1=base, rs2=self._register(), imm=odd)],
            # Taken branch to a target 2 (mod 4) bytes away: encodable but
            # misaligned, so it must raise INSTRUCTION_ADDRESS_MISALIGNED.
            [Instruction("beq", rs1=0, rs2=0, imm=6)],
        ]
        if self.rng.random() < 0.5:
            # jalr to an odd base: bit 0 is cleared by the ISA, bit 1 traps.
            # One group: the staged base must reach the jalr unclobbered.
            register = self._register()
            groups.append([
                Instruction("addi", rd=register, rs1=0,
                            imm=2 + 4 * int(self.rng.integers(0, 8))),
                Instruction("jalr", rd=0, rs1=register, imm=0),
            ])
        return groups

    def _access_stimuli(self) -> List[List[Instruction]]:
        # One group: lw/sd consume the out-of-window base the lui stages.
        register = self._register()
        upper = pick(self.rng, (0x10000, 0x20000, 0x7FFFF))
        return [[
            Instruction("lui", rd=register, imm=upper),
            Instruction("lw", rd=self._register(), rs1=register, imm=0),
            Instruction("sd", rs1=register, rs2=self._register(), imm=8),
        ]]

    def _csr_stimuli(self) -> List[List[Instruction]]:
        walk_targets = (csrdefs.MSCRATCH, csrdefs.MTVEC, csrdefs.MEPC,
                        csrdefs.MCAUSE, csrdefs.MTVAL)
        register = self._register()
        return [
            # Walk a machine CSR away from zero and back: two guaranteed
            # class transitions for the CSR-transition coverage model.
            [Instruction("csrrwi", rd=self._register(),
                         imm=1 + int(self.rng.integers(0, 31)),
                         csr=pick(self.rng, walk_targets))],
            [Instruction("csrrci", rd=self._register(), imm=0x1F,
                         csr=pick(self.rng, walk_targets))],
            # Read-only write: illegal-instruction trap.
            [Instruction("csrrw", rd=self._register(), rs1=register,
                         csr=pick(self.rng, sorted(csrdefs.READ_ONLY_CSRS)))],
            # Unimplemented CSR read: illegal-instruction trap (or V6).
            [Instruction("csrrs", rd=self._register(), rs1=0,
                         csr=pick(self.rng, sorted(csrdefs.UNIMPLEMENTED_CSRS)))],
        ]

    def _system_stimuli(self) -> List[List[Instruction]]:
        groups = [[Instruction("ebreak")]]
        if self.rng.random() < 0.5:
            # Seed mepc with a small invalid address, then mret to it: the
            # pc leaves the program window, exercising the fetch-fault halt.
            # One group: filler between the write and the mret could trap
            # and overwrite mepc with its own pc.
            groups.append([
                Instruction("csrrwi", rd=0,
                            imm=4 * int(self.rng.integers(1, 8)),
                            csr=csrdefs.MEPC),
                Instruction("mret"),
            ])
        else:
            groups.append([Instruction("wfi")])
            groups.append([Instruction("ecall")])
        return groups

    # ----------------------------------------------------------------- programs
    def generate(self, kind: Optional[str] = None,
                 length: Optional[int] = None) -> TestProgram:
        """Generate one trap-scenario seed program.

        Args:
            kind: force a scenario kind from :data:`KINDS` (``None`` = draw).
            length: target body length; ``None`` draws from the configured
                range (stimuli included).
        """
        if kind is None:
            kind = str(self.KINDS[self.rng.integers(0, len(self.KINDS))])
        elif kind not in self.KINDS:
            raise KeyError(f"unknown scenario kind {kind!r}; "
                           f"available: {self.KINDS}")
        if length is None:
            length = int(self.rng.integers(self.config.min_instructions,
                                           self.config.max_instructions + 1))
        # Each ``_<kind>_stimuli`` builder returns *stimulus groups*:
        # instructions inside one group are register/data dependent and must
        # stay adjacent, so the user-level filler is only ever inserted
        # between groups and can never clobber a staged base register.  They
        # are looked up per call: a table of bound methods on the generator
        # would make it a reference cycle.
        groups = getattr(self, f"_{kind}_stimuli")()
        stimulus_count = sum(len(group) for group in groups)
        body: List[Instruction] = []
        filler_budget = max(length - stimulus_count, len(groups))
        per_gap = max(filler_budget // (len(groups) + 1), 1)
        for group in groups:
            body.extend(self._filler.random_instruction()
                        for _ in range(per_gap))
            body.extend(group)
        trailing = max(filler_budget - per_gap * len(groups), 0)
        body.extend(self._filler.random_instruction() for _ in range(trailing))
        instructions = preamble_instructions() + body
        return TestProgram(
            instructions=tuple(instructions),
            base_address=DEFAULT_BASE_ADDRESS,
            program_id=next_program_id("trap"),
        )

    def generate_many(self, count: int) -> List[TestProgram]:
        """Generate ``count`` trap-scenario seeds (kinds drawn per seed)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return [self.generate() for _ in range(count)]


class MixedSeedGenerator:
    """Alternates user-level and trap-scenario seeds, starting user-level.

    ``generate_many(n)`` therefore seeds an arm set with arms 0, 2, 4 ...
    on user-level workloads and arms 1, 3, 5 ... on trap scenarios; arm
    resets drawn through ``generate()`` continue the same alternation, so
    the user/trap balance is preserved over a whole campaign.  Both
    sub-generators share one rng stream, keeping the draw sequence (and
    therefore campaign results) a pure function of the seed.
    """

    def __init__(self, config: Optional[GeneratorConfig] = None, rng=None) -> None:
        self.config = config or GeneratorConfig()
        self.rng = make_rng(rng)
        self._user = SeedGenerator(self.config, self.rng)
        self._trap = TrapScenarioGenerator(self.config, self.rng)
        self._draws = 0

    def generate(self) -> TestProgram:
        """The next seed in the user/trap alternation."""
        provider = self._user if self._draws % 2 == 0 else self._trap
        self._draws += 1
        return provider.generate()

    def generate_many(self, count: int) -> List[TestProgram]:
        if count < 0:
            raise ValueError("count must be non-negative")
        return [self.generate() for _ in range(count)]


def make_seed_provider(scenario: str,
                       config: Optional[GeneratorConfig] = None,
                       rng=None):
    """Build the seed provider for ``scenario`` (``"user"``/``"trap"``/``"mixed"``).

    The ``"user"`` path constructs a plain :class:`~repro.isa.generator.
    SeedGenerator` exactly as the fuzzers always did, so existing campaigns
    stay bit-identical.
    """
    if scenario == "user":
        return SeedGenerator(config, rng)
    if scenario == "trap":
        return TrapScenarioGenerator(config, rng)
    if scenario == "mixed":
        return MixedSeedGenerator(config, rng)
    raise KeyError(f"unknown scenario {scenario!r}; available: {SCENARIOS}")
