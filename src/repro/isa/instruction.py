"""The :class:`Instruction` value type.

An :class:`Instruction` is a *decoded* view of one 32-bit instruction word:
a mnemonic plus operand fields.  It is intentionally a plain dataclass so
that mutation operators can copy-and-modify instructions cheaply and tests
can construct them literally.  It is frozen *and* slotted: decode results
are cached and shared between the golden model, the DUT models and the
mutation engine, so instances must be immutable, and the slots keep
per-instruction allocation small on the fuzzing hot path.

A special mnemonic ``"illegal"`` represents an instruction word that does
not decode to any known instruction (the natural product of bit-level
mutation); the raw word is preserved so it can still be re-encoded, executed
(raising an illegal-instruction trap) and mutated further.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

ILLEGAL_MNEMONIC = "illegal"


@dataclass(frozen=True, slots=True)
class Instruction:
    """A single decoded RISC-V instruction.

    Operand fields not used by the instruction's format are left at their
    defaults and ignored by the assembler.

    Attributes:
        mnemonic: canonical lower-case mnemonic, or ``"illegal"``.
        rd: destination register index (0-31).
        rs1: first source register index (0-31).
        rs2: second source register index (0-31).
        imm: immediate value (sign semantics depend on the format).
        csr: CSR address for Zicsr instructions.
        raw: the raw 32-bit word for ``"illegal"`` instructions; ``None``
            for regular instructions (their encoding is derived on demand).
        aq: acquire bit for atomics.
        rl: release bit for atomics.
    """

    mnemonic: str
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0
    csr: int = 0
    raw: Optional[int] = None
    aq: int = 0
    rl: int = 0

    @classmethod
    def illegal(cls, word: int) -> "Instruction":
        """Build an illegal-instruction placeholder for ``word``."""
        return cls(mnemonic=ILLEGAL_MNEMONIC, raw=word & 0xFFFF_FFFF)

    @property
    def is_illegal(self) -> bool:
        """Whether this is an undecodable (illegal) instruction word."""
        return self.mnemonic == ILLEGAL_MNEMONIC

    def with_fields(self, **changes) -> "Instruction":
        """Return a copy of the instruction with ``changes`` applied
        (built directly: ``dataclasses.replace`` costs twice as much)."""
        pop = changes.pop
        copy = Instruction(pop("mnemonic", self.mnemonic), pop("rd", self.rd),
                           pop("rs1", self.rs1), pop("rs2", self.rs2), pop("imm", self.imm),
                           pop("csr", self.csr), pop("raw", self.raw), pop("aq", self.aq),
                           pop("rl", self.rl))
        if changes:
            raise TypeError(f"unknown instruction fields: {sorted(changes)}")
        return copy

    def __str__(self) -> str:  # pragma: no cover - convenience only
        from repro.isa.disassembler import disassemble

        return disassemble(self)
