"""Test-program container.

A :class:`TestProgram` is the unit of work of the fuzzers: a finite sequence
of instructions placed at a base address, together with provenance metadata
(which seed / arm it descends from and which mutation created it).  Programs
are immutable; the mutation engine produces new programs.

A program carries its words, ``tuple(assemble_program(instructions))``:
the in-process caches key on them with the base address, and the SHA-256
:meth:`~TestProgram.fingerprint` names a program only where it leaves the
process (corpus entries and their payloads).
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Tuple

from repro.isa.assembler import assemble_program
from repro.isa.disassembler import disassemble_program
from repro.isa.instruction import Instruction

#: Default load address of test programs (start of modelled DRAM).  The DRAM
#: window is placed below 2 GiB so that ``lui``-built addresses stay positive
#: under RV64 sign extension.
DEFAULT_BASE_ADDRESS = 0x4000_0000

#: stack of active id counters; the base entry is the process-global one.
_id_counters = [itertools.count()]


def next_program_id(prefix: str = "t") -> str:
    """Return a fresh program identifier from the innermost id scope.

    Outside any :class:`program_id_scope` the ids are process-unique.
    Inside one they restart from 0, which is what makes the ids recorded
    in campaign results (e.g. ``BugDetection.program_id``) functions of
    the campaign alone rather than of interpreter history -- a
    prerequisite for the serial-vs-parallel bit-identical guarantee of
    the execution subsystem.
    """
    return f"{prefix}{next(_id_counters[-1])}"


class program_id_scope:
    """Context manager isolating program-id numbering (restarts at 0).

    Scopes nest; ids are only unique *within* one scope, so never compare
    program ids across scopes (campaign trials each get their own).
    """

    def __enter__(self) -> "program_id_scope":
        _id_counters.append(itertools.count())
        return self

    def __exit__(self, *exc_info) -> None:
        _id_counters.pop()


@dataclass(frozen=True)
class TestProgram:
    """An immutable sequence of instructions plus fuzzing provenance.

    Attributes:
        instructions: the program body, executed in order from ``base_address``.
        base_address: load address of the first instruction.
        program_id: unique identifier assigned at creation time.
        parent_id: id of the program this one was mutated from (seeds: ``None``).
        seed_id: id of the ancestral seed program.
        generation: mutation depth (seeds are generation 0).
        mutation_op: name of the mutation operator that produced this program.
    """

    instructions: Tuple[Instruction, ...]
    base_address: int = DEFAULT_BASE_ADDRESS
    program_id: str = field(default_factory=next_program_id)
    parent_id: Optional[str] = None
    seed_id: Optional[str] = None
    generation: int = 0
    mutation_op: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "instructions", tuple(self.instructions))
        if self.seed_id is None:
            object.__setattr__(self, "seed_id", self.program_id)

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def words(self) -> Tuple[int, ...]:
        """The program's 32-bit instruction words, one per instruction.

        A mutant carries them from birth (see :meth:`with_instructions`);
        any other program assembles its instructions once, on first call.
        The tuple is the program's content: with ``base_address`` it keys
        every in-process cache (compiled traces, golden and DUT runs).
        """
        cached = self.__dict__.get("_words")
        if cached is None:
            cached = tuple(assemble_program(self.instructions))
            object.__setattr__(self, "_words", cached)
        return cached

    def fingerprint(self) -> str:
        """SHA-256 content hash of the words and base address, stable across
        processes: what names a program outside the process (the corpus)."""
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            digest = hashlib.sha256()
            for word in self.words():
                digest.update(word.to_bytes(4, "little"))
            digest.update(self.base_address.to_bytes(8, "little"))
            cached = digest.hexdigest()[:16]
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    def end_address(self) -> int:
        """Address of the first byte past the last instruction."""
        return self.base_address + 4 * len(self.instructions)

    def with_instructions(
        self,
        instructions: Sequence[Instruction],
        mutation_op: Optional[str] = None,
        words: Optional[Sequence[int]] = None,
    ) -> "TestProgram":
        """Return a child program with ``instructions`` and updated lineage.

        ``words`` must equal ``assemble_program(instructions)``; without
        them the child assembles on first use.  Built straight into its
        ``__dict__``: four mutants per executed test, most never run.
        """
        child = object.__new__(TestProgram)
        state = child.__dict__
        state["instructions"] = tuple(instructions)
        state["base_address"] = self.base_address
        state["program_id"] = next_program_id()
        state["parent_id"] = self.program_id
        state["seed_id"] = self.seed_id
        state["generation"] = self.generation + 1
        state["mutation_op"] = mutation_op
        if words is not None:
            state["_words"] = tuple(words)
        return child

    def listing(self) -> str:
        """Return a human-readable disassembly listing."""
        return "\n".join(disassemble_program(self.instructions, self.base_address))
