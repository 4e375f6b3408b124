"""Per-program compiled traces: pre-decoded threaded code for the executors.

Every run of a :class:`~repro.isa.program.TestProgram` -- golden *and* every
DUT -- used to re-fetch and re-decode each instruction word on every step.
Both are deterministic functions of the immutable program, so this module
compiles a program **once** into a threaded-code list of per-instruction
entries ``(word, instruction, handler)``:

* ``word`` is the 32-bit encoding exactly as the memory image holds it,
* ``instruction`` is the shared decode result (the same object the
  word->Instruction cache in :mod:`repro.isa.decoder` hands out), and
* ``handler`` is the executor's per-mnemonic execute closure, resolved at
  compile time (illegal words get one that raises the illegal-instruction
  trap).

Compiled programs are cached in a bounded process-global LRU keyed by the
program's content, its word tuple and base address, so trials that
regenerate identical programs -- bug-set sweeps, MABFuzz arms replaying
seeds, duplicate mutants -- share one compilation per process,
and the execution subsystem's ``--cache-entries`` knob re-bounds it
together with the golden/DUT run caches (see ``docs/performance.md``).
The compiled program is a program's only entry in this process cache:
it also holds the program's index of its leaders' superblocks.

On top of the per-entry trace this module builds **superblocks**: maximal
straight-line runs of compiled entries, which the executors retire in one
tight loop.  Every instruction commits inside a block -- the shared run
loop in :mod:`repro.sim.golden` has no other dispatch.  A block ends at
the first entry that can redirect or halt execution (branches, jumps,
system instructions, CSR accesses), which it keeps as its *tail*.  Every
instruction before the tail falls through to ``pc + 4`` -- even when it
traps, because the harness convention resumes at the next instruction --
which is exactly what lets the fused loops defer the ``pc`` write to the
block exit.  A block is a function of its words alone, so one process
block table (:func:`process_block_table`, keyed by the word tuple) serves
every program holding them: a mutant reuses each parent block its
mutation did not touch, with every plan the DUTs attached to it.  A
compiled program looks its leaders' blocks up lazily (only leaders that
execution reaches pay), and a spill of the program leaves them in the
table.  The run loop cuts a block short at the step limit and before a
word a store overwrote, and runs an overwritten word, re-fetched, as a
block of its own (:meth:`Superblock.prefix`, :func:`word_block`, both
from the table too).  See ``docs/performance.md`` for the formation rules.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.isa.decoder import decode_word
from repro.isa.encoding import SPECS, InstrClass
from repro.isa.program import TestProgram
from repro.utils.lru import LRUCache


class CompiledProgram:
    """A program's threaded-code form and its lazily filled superblock table.

    ``entries`` holds one ``(word, instr, handler)`` per slot of ``words``.
    ``at(index)`` returns the superblock *leading at* ``index``: every entry
    leads one, at least one entry long.  Blocks are taken from the process
    block table per leader index on first request, so a program only pays
    for the leaders execution actually reaches; blocks starting at
    different indices may overlap (a jump into the middle of one
    straight-line run simply leads its own block).
    """

    __slots__ = ("base_address", "end_address", "words", "entries", "_blocks")

    def __init__(self, base_address: int, words: Tuple[int, ...],
                 entries: Tuple[Tuple, ...]) -> None:
        self.base_address = base_address
        self.end_address = base_address + 4 * len(entries)
        self.words = words
        self.entries = entries
        self._blocks: List[Optional[Superblock]] = [None] * len(entries)

    def __len__(self) -> int:
        return len(self.entries)

    def at(self, index: int) -> "Superblock":
        block = self._blocks[index]
        if block is None:
            block = self._blocks[index] = self._build(index)
        return block

    def _build(self, index: int) -> "Superblock":
        entries = self.entries
        count = len(entries)
        stop = index
        while stop < count:
            stop += 1
            if entries[stop - 1][1].mnemonic in _TERMINATORS:
                break  # the terminator closes the block as its tail
        return _block(self.words[index:stop], entries[index:stop])


def _compile(program: TestProgram) -> CompiledProgram:
    """Pre-decode ``program`` into a :class:`CompiledProgram` (uncached)."""
    # Local import: the ISA layer only reaches into the executor's handler
    # table at compile time, keeping ``import repro.isa`` free of the sim
    # package at module-import time.
    from repro.sim.executor import handler_for

    words = program.words()
    entries = []
    for word in words:
        instr = decode_word(word)
        entries.append((word, instr, handler_for(instr)))
    return CompiledProgram(program.base_address, words, tuple(entries))


#: the process-global compiled-program cache (one per worker process).
_PROCESS_COMPILED_CACHE = LRUCache()


def process_compiled_cache() -> LRUCache:
    """The calling process's compiled-program cache, keyed by ``(words, base_address)``."""
    return _PROCESS_COMPILED_CACHE


def compile_program(program: TestProgram) -> CompiledProgram:
    """The compiled trace of ``program``, served from the process LRU.

    Deliberately *not* memoised on the program object: live programs (test
    pools, MABFuzz arms) would pin their traces outside the cache bound,
    and the engine's ``--cache-entries`` knob could no longer reclaim the
    memory.  A lookup hashes the word tuple the program carries and does
    one LRU dict get -- negligible next to a run.
    """
    key = (program.words(), program.base_address)
    compiled = _PROCESS_COMPILED_CACHE.lookup(key)
    if compiled is None:
        compiled = _compile(program)
        _PROCESS_COMPILED_CACHE.insert(key, compiled)
    return compiled


# ---------------------------------------------------------------------------
# Superblocks: fused straight-line runs of the compiled trace.
# ---------------------------------------------------------------------------

#: mnemonics that end a superblock, as its tail.  Branches and jumps
#: redirect the pc: the tail record's ``next_pc`` carries the target (or
#: ``pc + 4`` when not taken or trapped).  System instructions halt
#: (``ecall``), trap (``ebreak``) or redirect (``mret`` exits at
#: ``mepc``).  CSR instructions read or write the retirement counters the
#: fused loops batch, so those flush the batch right before a CSR tail.
#: Everything else -- ALU, loads/stores, atomics, fences, mul/div, illegal
#: words -- commits ``next_pc == pc + 4`` unconditionally, *including* when
#: it traps (the harness convention resumes at the next instruction).
_TERMINATORS = frozenset(
    mnemonic for mnemonic, spec in SPECS.items()
    if spec.cls in (InstrClass.BRANCH, InstrClass.JUMP, InstrClass.SYSTEM,
                    InstrClass.CSR))
_CSR_MNEMONICS = frozenset(mnemonic for mnemonic, spec in SPECS.items()
                           if spec.cls is InstrClass.CSR)


def dirty_word_span(mem_addr: int, mem_size: int,
                    base_address: int, end_address: int) -> Optional[Tuple[int, int]]:
    """Code-window word indices ``(first, last)`` a committed store dirtied.

    The single source of range math for self-modification tracking: the
    shared run loop's dirty-word set, the fused superblock loops' abort
    check, and the invalidation tests all call this helper, so a store
    spanning the ``end_address`` boundary or brushing ``base_address``
    from below is clamped identically everywhere.  Returns ``None`` when
    ``[mem_addr, mem_addr + mem_size)`` misses the code window entirely
    (in particular a byte store at ``base_address - 1`` dirties nothing).
    """
    if mem_addr >= end_address or mem_addr + mem_size <= base_address:
        return None
    first = max(mem_addr - base_address, 0) >> 2
    last = (min(mem_addr + mem_size, end_address) - base_address - 1) >> 2
    return first, last


class Superblock:
    """One fused straight-line run of compiled entries: a function of its words.

    A block holds nothing about the program it runs in -- the executors
    take the code window for their dirty-store check from the run loop --
    so the process block table (:func:`process_block_table`) hands one
    block, and every plan attached to it, to every program holding its
    words.

    Attributes:
        words: the block's instruction words, its key in the block table.
        length: number of fused entries.
        entries: the compiled ``(word, instr, handler)`` tuple -- what the
            golden fused loop iterates.
        csr_tail: ``True`` when the final entry is a CSR instruction.  CSR
            reads must observe architecturally exact MINSTRET/MCYCLE, so
            the fused loops flush their batched retirement counters (and
            reset the batch) immediately before executing the tail.
        dut_plan: per-entry execution plan the DUT harness attaches
            lazily on first use (pre-resolved spec/class/register fields
            plus the per-instruction static coverage mask); ``None``
            until then.  The plan is DUT-independent, so one block serves
            every DUT model.
        model_plans: per-model structural-emission plans, keyed by model
            class and attached lazily by ``structural_block_mask``
            overrides.  Coverage bit masks are stable for the life of the
            process and the tables they come from depend only on the
            model class, so a resolved plan list stays valid for as long
            as the block is cached.
        bug_cuts: static ``InjectedBug.triggers_on`` declarations of a
            bug set -> offset of the first entry one of them claims (-1
            for none), filled by the DUT harness per bug set it runs the
            block with.
        static_masks: ``(hazard window size, commits run, incoming
            window...)`` -> ``(mask, outgoing window)``: the block's
            decode/operand/system and hazard coverage over its first
            commits, memoised by the DUT harness and cleared on overflow.
    """

    __slots__ = ("words", "length", "entries", "csr_tail", "dut_plan",
                 "model_plans", "bug_cuts", "static_masks")

    def __init__(self, words: Tuple[int, ...], entries: Tuple[Tuple, ...]) -> None:
        self.words = words
        self.length = len(entries)
        self.entries = entries
        self.csr_tail = entries[-1][1].mnemonic in _CSR_MNEMONICS
        self.dut_plan = None
        self.model_plans = {}
        self.bug_cuts = {}
        self.static_masks = {}

    def prefix(self, length: int) -> "Superblock":
        """The block's first ``length`` entries, as a block of their own.

        The run loop runs one when fewer steps remain under the step limit
        than the block holds, or when a store overwrote one of its later
        words.  A prefix never holds the tail, so it falls through.
        """
        return _block(self.words[:length], self.entries[:length])


#: the process-global block table: word tuple -> :class:`Superblock`.
_PROCESS_BLOCK_TABLE = LRUCache()


def process_block_table() -> LRUCache:
    """The calling process's superblock table, keyed by the blocks' word tuples."""
    return _PROCESS_BLOCK_TABLE


def _block(words: Tuple[int, ...], entries: Tuple[Tuple, ...]) -> Superblock:
    """The block of ``words`` (compiled as ``entries``), from the table."""
    block = _PROCESS_BLOCK_TABLE.lookup(words)
    if block is None:
        block = Superblock(words, entries)
        _PROCESS_BLOCK_TABLE.insert(words, block)
    return block


def word_block(word: int) -> Superblock:
    """The one-entry block running ``word``.

    How the run loop executes a word a store overwrote since load: it
    re-fetches the word and decodes it as the compiled trace would.
    """
    from repro.sim.executor import handler_for

    instr = decode_word(word)
    return _block((word,), ((word, instr, handler_for(instr)),))


def superblocks_for(program: TestProgram,
                    compiled: Optional[CompiledProgram] = None) -> CompiledProgram:
    """The superblock table of ``program``: its compiled program.

    The per-leader index lives on the compiled entry
    (:meth:`CompiledProgram.at`), so pass the already-resolved ``compiled``
    trace when the caller holds one (the run loop does) to skip a second
    cache lookup.
    """
    return compile_program(program) if compiled is None else compiled
