"""Architectural commit trace records.

Differential testing (Sec. II-A) compares, instruction by instruction, what
the DUT committed against what the golden reference committed.  A
:class:`CommitRecord` captures exactly the architecturally-visible effects
of one instruction; :meth:`CommitRecord.arch_key` is the tuple the
differential tester compares.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.isa.exceptions import TrapCause


class HaltReason(enum.Enum):
    """Why a program run terminated."""

    PROGRAM_END = "program_end"        # pc ran past the last instruction
    ECALL = "ecall"                    # environment call (end-of-test convention)
    PC_OUT_OF_RANGE = "pc_out_of_range"
    STEP_LIMIT = "step_limit"


@dataclass(slots=True, eq=True)
class CommitRecord:
    """Architecturally visible effects of executing one instruction.

    A record does not carry its step: its step is its index in
    :attr:`ExecutionResult.records`.  So a replayed loop appends the
    period's own records again, one record may stand at many indices of a
    trace, and the run caches share whole results across trials: that
    records are read-only is load-bearing.  It holds *by convention*: one
    record is built per simulated commit on the innermost loop, and the
    frozen-dataclass ``object.__setattr__`` init path costs ~4x a plain
    slots init, so the class is deliberately not ``frozen=True``.

    Attributes:
        pc: address of the instruction.
        word: raw 32-bit encoding.
        mnemonic: decoded mnemonic (or ``"illegal"``).
        rd: destination register written, or ``None``.
        rd_value: value written to ``rd``.
        trap: trap cause raised by this instruction, or ``None``.
        trap_tval: value written to ``mtval`` when the trap committed
            (the faulting address/word), or ``None`` for trap-free commits.
        mem_addr: effective address of a committed store, or ``None``.
        mem_value: value stored.
        mem_size: store size in bytes.
        csr_addr: CSR written by this instruction, or ``None``.
        csr_value: value written to the CSR.
        next_pc: pc after this instruction committed.
    """

    pc: int
    word: int
    mnemonic: str
    rd: Optional[int] = None
    rd_value: Optional[int] = None
    trap: Optional[TrapCause] = None
    mem_addr: Optional[int] = None
    mem_value: Optional[int] = None
    mem_size: Optional[int] = None
    csr_addr: Optional[int] = None
    csr_value: Optional[int] = None
    next_pc: int = 0
    trap_tval: Optional[int] = None

    def arch_key(self) -> Tuple:
        """The tuple compared by the differential tester."""
        return (
            self.pc,
            self.rd,
            self.rd_value,
            self.trap,
            self.mem_addr,
            self.mem_value,
            self.csr_addr,
            self.csr_value,
            self.next_pc,
        )


@dataclass
class ExecutionResult:
    """Outcome of running one test program on one model."""

    records: List[CommitRecord] = field(default_factory=list)
    halt_reason: HaltReason = HaltReason.PROGRAM_END
    final_registers: Tuple[int, ...] = ()
    final_csrs: Dict[int, int] = field(default_factory=dict)
    steps: int = 0

    @property
    def instret(self) -> int:
        """Number of committed instructions."""
        return len(self.records)

    def trapped_steps(self) -> List[CommitRecord]:
        """All commit records that raised a trap."""
        return [r for r in self.records if r.trap is not None]
