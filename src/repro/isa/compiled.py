"""Per-program compiled traces: pre-decoded threaded code for the executors.

Every run of a :class:`~repro.isa.program.TestProgram` -- golden *and* every
DUT -- used to re-fetch and re-decode each instruction word on every step.
Both are deterministic functions of the immutable program, so this module
compiles a program **once** into a threaded-code list of per-instruction
entries ``(word, instruction, handler)``:

* ``word`` is the 32-bit encoding exactly as the memory image holds it (what
  legacy ``fetch_word`` returned),
* ``instruction`` is the shared decode result (the same object the
  word->Instruction cache in :mod:`repro.isa.decoder` hands the legacy
  path), and
* ``handler`` is the executor's per-mnemonic execute closure, resolved at
  compile time (``None`` for illegal words, which take the trap path).

The shared run loop in :mod:`repro.sim.golden` indexes this list by
``(pc - base) >> 2`` instead of fetching and decoding, falling back to the
generic ``Executor.step`` for anything a compiled entry cannot represent:
misaligned in-range program counters, and words a store has overwritten
since load (self-modifying programs are legal here -- the ``mem.region.code``
coverage point exists precisely because stores may hit the code window).

Compiled traces are cached in a bounded process-global LRU keyed by the
program *fingerprint* (content hash of words + base address), so trials
that regenerate identical programs -- bug-set sweeps, MABFuzz arms
replaying seeds, duplicate mutants -- share one compilation per process,
and the execution subsystem's ``--cache-entries`` knob re-bounds it
together with the golden/DUT run caches (see ``docs/performance.md``).

On top of the per-entry trace this module builds **superblocks**: maximal
straight-line runs of compiled entries, fused so the executors can retire a
whole run in one tight loop instead of paying the shared run loop's
per-step dispatch.  A superblock ends at the first entry that can redirect
or halt execution (branches, jumps, system instructions, CSR accesses) or
that has no handler (illegal words trap through the generic path).  Every
instruction *inside* a block therefore falls through to ``pc + 4`` -- even
when it traps, because the harness convention resumes at the next
instruction -- which is exactly what lets the fused loops defer the ``pc``
write to the block exit.  Blocks are built lazily per entry index (only
leaders that execution actually reaches pay the build) and cached per
program in a second fingerprint-keyed LRU bounded by the same
``--cache-entries`` knob (``superblock_*`` counters in
``process_cache_stats``).  See ``docs/performance.md`` for the formation
rules and the run loop's fallback cases.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import List, Dict, Optional, Tuple

from repro.isa.decoder import decode_word
from repro.isa.encoding import InstrClass, spec_for
from repro.isa.exceptions import Trap, TrapCause
from repro.isa.program import TestProgram

#: default capacity of the process-global fingerprint-keyed cache; the
#: execution subsystem re-bounds it per batch together with the run caches.
DEFAULT_COMPILED_ENTRIES = 4096


class CompiledProgram:
    """A program's threaded-code form: one ``(word, instr, handler)`` per slot."""

    __slots__ = ("base_address", "end_address", "entries")

    def __init__(self, base_address: int, entries: Tuple[Tuple, ...]) -> None:
        self.base_address = base_address
        self.end_address = base_address + 4 * len(entries)
        self.entries = entries

    def __len__(self) -> int:
        return len(self.entries)


def _compile(program: TestProgram) -> CompiledProgram:
    """Pre-decode ``program`` into a :class:`CompiledProgram` (uncached)."""
    # Local import: the ISA layer only reaches into the executor's handler
    # table at compile time, keeping ``import repro.isa`` free of the sim
    # package at module-import time.
    from repro.sim.executor import handler_for

    entries = []
    for word in program.words():
        word &= 0xFFFF_FFFF
        instr = decode_word(word)
        entries.append((word, instr, handler_for(instr)))
    return CompiledProgram(program.base_address, tuple(entries))


class CompiledTraceCache:
    """Bounded LRU of compiled traces keyed by program fingerprint."""

    def __init__(self, max_entries: int = DEFAULT_COMPILED_ENTRIES) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, CompiledProgram]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get_or_compile(self, program: TestProgram) -> CompiledProgram:
        key = program.fingerprint()
        cached = self._entries.get(key)
        if cached is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return cached
        self.misses += 1
        compiled = _compile(program)
        while len(self._entries) >= self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1
        self._entries[key] = compiled
        return compiled

    def configure(self, max_entries: int) -> None:
        """Re-bound the cache, spilling LRU entries down to the new capacity."""
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._entries.clear()

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "entries": len(self._entries),
                "max_entries": self.max_entries}

    def __len__(self) -> int:
        return len(self._entries)


#: the process-global compiled-trace cache (one per worker process).
_PROCESS_COMPILED_CACHE: Optional[CompiledTraceCache] = None


def process_compiled_cache() -> CompiledTraceCache:
    """The calling process's shared compiled-trace cache (created lazily)."""
    global _PROCESS_COMPILED_CACHE
    if _PROCESS_COMPILED_CACHE is None:
        _PROCESS_COMPILED_CACHE = CompiledTraceCache()
    return _PROCESS_COMPILED_CACHE


def compile_program(program: TestProgram) -> CompiledProgram:
    """The compiled trace of ``program``, served from the process LRU.

    Deliberately *not* memoised on the program object: live programs (test
    pools, MABFuzz arms) would pin their traces outside the cache bound,
    and the engine's ``--cache-entries`` knob could no longer reclaim the
    memory.  A lookup is one memoised ``fingerprint()`` read plus an LRU
    dict get -- negligible next to a run.
    """
    return process_compiled_cache().get_or_compile(program)


def compiled_cache_stats() -> Dict[str, int]:
    """Counters of the process-global compiled-trace cache."""
    return process_compiled_cache().stats()


def configure_compiled_cache(max_entries: Optional[int]) -> None:
    """Re-bound the process cache (``None`` = :data:`DEFAULT_COMPILED_ENTRIES`)."""
    process_compiled_cache().configure(
        DEFAULT_COMPILED_ENTRIES if max_entries is None else max_entries)


# ---------------------------------------------------------------------------
# Superblocks: fused straight-line runs of the compiled trace.
# ---------------------------------------------------------------------------

#: instruction classes that end a superblock.  Branches and jumps redirect
#: the pc; system instructions halt (``ecall``), trap, or redirect
#: (``mret``); CSR instructions read or write the retirement counters the
#: fused loops batch, so they may only close a block, as its tail (after
#: the counters are flushed).  Everything else -- ALU, loads/stores,
#: atomics, fences, mul/div -- commits ``next_pc == pc + 4``
#: unconditionally, *including* when it traps (the harness convention
#: resumes at the next instruction).
_TERMINATOR_CLASSES = frozenset({
    InstrClass.BRANCH, InstrClass.JUMP, InstrClass.SYSTEM, InstrClass.CSR,
})

#: terminators that may still execute *inside* a block as its final "tail"
#: entry: branches and jumps commit one ordinary record whose ``next_pc``
#: carries the (possibly redirected) target, and on a misaligned-target
#: trap the trap record's ``next_pc`` is ``pc + 4`` -- either way the
#: block exit pc is simply the tail record's ``next_pc``.  System and CSR
#: instructions stay excluded: they read or write machine state (counter
#: CSRs, ``mepc``) that the fused loops batch or do not maintain
#: mid-block.
_TAIL_CLASSES = frozenset({InstrClass.BRANCH, InstrClass.JUMP})

#: minimum entries worth fusing.  Even a one-instruction "block" wins for
#: the instrumented DUT executor: the fused loop replaces the whole
#: per-step hook-dispatch chain (fetch/decode recording, observe hooks,
#: retirement bookkeeping), which costs far more than the block dispatch
#: checks, and isolated straight-line instructions between terminators are
#: common in fuzzed programs (~1/3 of non-terminator steps).
MIN_SUPERBLOCK_LENGTH = 1


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
    """One fused straight-line run of compiled entries.

    Attributes:
        start: word index of the block's first entry in the compiled trace.
        length: number of fused entries.
        base_address / end_address: the owning program's code window, so
            the fused loops can run the dirty-store abort check without
            reaching back to the program.
        word_set: ``frozenset`` of the word indices the block spans; the
            run loop dispatches a block only when this is disjoint from
            the dirty-word set (a store into the middle of a fused block
            must re-fetch every subsequent instruction).
        entries: the compiled ``(word, instr, handler)`` slice -- what the
            golden fused loop iterates.
        tail_redirect: ``True`` when the final entry is a branch or jump
            (:data:`_TAIL_CLASSES`); the block's exit pc is then the tail
            record's ``next_pc`` instead of the fall-through address.
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
        bug_cut: ``(triggers, offset)`` for the last injected-bug set the
            DUT harness ran this block with: its static trigger
            declarations and the offset of the first entry one of them
            claims (-1 for none).  ``None`` until a bug-injected DUT
            runs the block.
    """

    __slots__ = ("start", "length", "base_address", "end_address",
                 "word_set", "entries", "dut_plan", "model_plans",
                 "tail_redirect", "csr_tail", "bug_cut")

    def __init__(self, start: int, entries: Tuple[Tuple, ...],
                 base_address: int, end_address: int,
                 tail_redirect: bool = False, csr_tail: bool = False) -> None:
        self.start = start
        self.length = len(entries)
        self.base_address = base_address
        self.end_address = end_address
        self.word_set = frozenset(range(start, start + len(entries)))
        self.entries = entries
        self.dut_plan = None
        self.model_plans = {}
        self.tail_redirect = tail_redirect
        self.csr_tail = csr_tail
        self.bug_cut = None


#: table sentinel distinguishing "not built yet" from "not fusable" (None).
_UNBUILT = object()


def _illegal_step(executor, instr, pc: int, word: int):
    """Superblock stand-in handler for illegal words.

    Compiled entries carry ``None`` handlers for illegal words and the
    per-step dispatcher raises the illegal-instruction trap itself.  Inside
    a superblock the entry gets this handler instead, so the fused loops'
    existing ``except Trap`` arm commits the identical trap record --
    illegal words are deterministic straight-line entries (trap, fall
    through to pc+4) and no longer terminate block formation.
    """
    raise Trap(TrapCause.ILLEGAL_INSTRUCTION, tval=word)


class ProgramBlocks:
    """Lazily built superblock table of one compiled program.

    ``at(index)`` returns the superblock *leading at* ``index`` (or
    ``None`` when fewer than :data:`MIN_SUPERBLOCK_LENGTH` fusable entries
    start there).  Blocks are built per leader index on first request, so
    a program only pays for the leaders execution actually reaches; blocks
    starting at different indices may overlap (a jump into the middle of
    one straight-line run simply leads its own block).
    """

    __slots__ = ("_compiled", "_table")

    def __init__(self, compiled: CompiledProgram) -> None:
        self._compiled = compiled
        self._table: List[object] = [_UNBUILT] * len(compiled.entries)

    def at(self, index: int) -> Optional[Superblock]:
        block = self._table[index]
        if block is _UNBUILT:
            block = self._build(index)
            self._table[index] = block
        return block

    def _build(self, index: int) -> Optional[Superblock]:
        entries = self._compiled.entries
        count = len(entries)
        stop = index
        tail_redirect = False
        csr_tail = False
        fused_illegal = False
        while stop < count:
            handler = entries[stop][2]
            if handler is None:
                # Illegal word: a deterministic illegal-instruction trap
                # that falls through to pc+4, so it fuses like any other
                # straight-line entry (via _illegal_step below).
                fused_illegal = True
                stop += 1
                continue
            cls = spec_for(entries[stop][1].mnemonic).cls
            if cls in _TERMINATOR_CLASSES:
                if cls in _TAIL_CLASSES:
                    stop += 1  # branch/jump closes the block as its tail
                    tail_redirect = True
                elif cls is InstrClass.CSR:
                    # CSR closes the block as its tail: the fused loops
                    # flush their batched retirement counters right before
                    # it, so its CSR reads/writes are architecturally
                    # exact.  It always falls through (or traps to pc+4),
                    # so no redirect handling is needed.
                    stop += 1
                    csr_tail = True
                break
            stop += 1
        if stop - index < MIN_SUPERBLOCK_LENGTH:
            return None
        block_entries = entries[index:stop]
        if fused_illegal:
            block_entries = tuple(
                entry if entry[2] is not None
                else (entry[0], entry[1], _illegal_step)
                for entry in block_entries)
        compiled = self._compiled
        return Superblock(index, block_entries,
                          compiled.base_address, compiled.end_address,
                          tail_redirect, csr_tail)


class SuperblockCache:
    """Bounded LRU of per-program superblock tables keyed by fingerprint."""

    def __init__(self, max_entries: int = DEFAULT_COMPILED_ENTRIES) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, ProgramBlocks]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get_or_build(self, program: TestProgram,
                     compiled: Optional[CompiledProgram] = None) -> ProgramBlocks:
        key = program.fingerprint()
        cached = self._entries.get(key)
        if cached is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return cached
        self.misses += 1
        if compiled is None:
            compiled = compile_program(program)
        blocks = ProgramBlocks(compiled)
        while len(self._entries) >= self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1
        self._entries[key] = blocks
        return blocks

    def configure(self, max_entries: int) -> None:
        """Re-bound the cache, spilling LRU entries down to the new capacity."""
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._entries.clear()

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "entries": len(self._entries),
                "max_entries": self.max_entries}

    def __len__(self) -> int:
        return len(self._entries)


#: the process-global superblock cache (one per worker process).
_PROCESS_SUPERBLOCK_CACHE: Optional[SuperblockCache] = None


def process_superblock_cache() -> SuperblockCache:
    """The calling process's shared superblock cache (created lazily)."""
    global _PROCESS_SUPERBLOCK_CACHE
    if _PROCESS_SUPERBLOCK_CACHE is None:
        _PROCESS_SUPERBLOCK_CACHE = SuperblockCache()
    return _PROCESS_SUPERBLOCK_CACHE


def superblocks_for(program: TestProgram,
                    compiled: Optional[CompiledProgram] = None) -> ProgramBlocks:
    """The superblock table of ``program``, served from the process LRU.

    Pass the already-resolved ``compiled`` trace when the caller holds one
    (the run loop does) to skip a redundant compiled-cache lookup on miss.
    """
    return process_superblock_cache().get_or_build(program, compiled)


def superblock_cache_stats() -> Dict[str, int]:
    """Counters of the process-global superblock cache."""
    return process_superblock_cache().stats()


def configure_superblock_cache(max_entries: Optional[int]) -> None:
    """Re-bound the process cache (``None`` = :data:`DEFAULT_COMPILED_ENTRIES`)."""
    process_superblock_cache().configure(
        DEFAULT_COMPILED_ENTRIES if max_entries is None else max_entries)


# Superblock dispatch can be disabled fleet-wide or per process -- the
# per-entry path is the reference semantics, and CI proves a mixed fleet
# (some workers fused, some not) still agrees bit-for-bit.  Worker
# processes read the environment variable at import, so exporting
# ``REPRO_SUPERBLOCKS=0`` before launching a worker opts just that worker
# out; ``set_superblocks_enabled`` flips the current process at runtime
# (benchmarks and the digest-equality tests toggle it around runs).
_SUPERBLOCKS_ENABLED = (
    os.environ.get("REPRO_SUPERBLOCKS", "1").strip().lower()
    not in ("0", "false", "off", "no"))


def superblocks_enabled() -> bool:
    """Whether run loops in this process dispatch fused superblocks."""
    return _SUPERBLOCKS_ENABLED


def set_superblocks_enabled(enabled: bool) -> None:
    """Enable/disable superblock dispatch for this process."""
    global _SUPERBLOCKS_ENABLED
    _SUPERBLOCKS_ENABLED = bool(enabled)
