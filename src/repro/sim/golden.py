"""The golden reference model and the shared program-run loop.

:class:`ModelBase` owns the run loop (load program, step until halt, collect
the commit trace); :class:`GoldenModel` is the reference instantiation using
the plain :class:`~repro.sim.executor.Executor`.  DUT models
(:mod:`repro.rtl`) reuse the same run loop with an instrumented executor, so
that a defect-free DUT is trace-identical to the golden model by
construction -- exactly the property differential testing relies on.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro.isa.compiled import (compile_program, dirty_word_span,
                                superblocks_enabled, superblocks_for)
from repro.isa.csr import CYCLE, INSTRET, MCYCLE, MINSTRET, TIME
from repro.isa.encoding import SPECS, InstrClass
from repro.isa.program import TestProgram
from repro.sim.executor import Executor, ExecutorConfig
from repro.sim.memory import DEFAULT_LAYOUT, Memory, MemoryLayout
from repro.sim.state import ArchState
from repro.sim.trace import ExecutionResult, HaltReason
from repro.utils.bits import MASK64

_CSR_MNEMONICS = frozenset(mnemonic for mnemonic, spec in SPECS.items()
                           if spec.cls is InstrClass.CSR)
#: CSR fields (word bits 31:20) addressing a retirement counter, the only
#: state :meth:`Executor.periodic_state` leaves out: a loop period that
#: commits a CSR instruction on one of them is never replayed.
_COUNTER_CSRS = frozenset({MCYCLE, MINSTRET, CYCLE, TIME, INSTRET})


class ModelBase:
    """Shared run loop for golden and DUT models."""

    #: human-readable model name (overridden by DUTs).
    name = "model"

    def __init__(self, executor_config: Optional[ExecutorConfig] = None,
                 layout: MemoryLayout = DEFAULT_LAYOUT) -> None:
        self.executor_config = executor_config or ExecutorConfig()
        self.layout = layout

    # ------------------------------------------------------------------ factory
    def _make_executor(self, state: ArchState, memory: Memory) -> Executor:
        """Build the executor used for one program run (overridden by DUTs)."""
        return Executor(state, memory, self.executor_config)

    def _prepare_run(self, executor: Executor, program: TestProgram) -> None:
        """Hook called before stepping begins (DUTs reset microarch state here)."""

    def _finish_run(self, executor: Executor, result: ExecutionResult) -> None:
        """Hook called after the run completes."""

    # ---------------------------------------------------------------------- run
    def run(self, program: TestProgram,
            max_steps: Optional[int] = None) -> ExecutionResult:
        """Execute ``program`` to completion and return its commit trace.

        The loop is driven by the program's **compiled trace**
        (:func:`repro.isa.compiled.compile_program`): an in-range, aligned
        ``pc`` indexes straight into the pre-decoded ``(word, instr,
        handler)`` entries and skips fetch + decode entirely.  On top of
        that, straight-line runs dispatch as fused **superblocks**
        (:func:`repro.isa.compiled.superblocks_for` /
        :meth:`Executor.run_block`), retiring a whole run per loop
        iteration.  A block is dispatched only when its preconditions
        hold; otherwise the loop degrades gracefully, one level at a time:

        * fewer than ``block.length`` steps remain under the step limit
          (a partial block replays per-entry, so step-limit truncation is
          bit-identical to the unfused loop), or the block overlaps a
          dirty word -> per-entry compiled dispatch;
        * a misaligned in-range ``pc`` (reachable via ``mret`` with a
          software-seeded ``mepc``) or a word some earlier store
          overwrote -> the generic fetch-and-decode :meth:`Executor.step`,
          whose semantics (including its trap behaviour) are unchanged.

        Committed stores that overlap the code window mark their word
        slots dirty (range math shared with the fused loops through
        :func:`repro.isa.compiled.dirty_word_span`), so self-modifying
        programs execute exactly as they always did -- a store into the
        middle of a fused block aborts it and every subsequent
        instruction is re-fetched.

        **Steady-state loops are replayed, not re-simulated.**  Every
        arrival at a taken backward transfer (a loop head) is recorded
        under its ``(pc, registers)``.  When one repeats with period ``P``
        and at least ``2P`` steps remain, the loop takes the executor's
        :meth:`~repro.sim.executor.Executor.periodic_state`; if the state
        at the arrival exactly ``P`` commits later is equal, and no CSR
        instruction of that period addresses a retirement counter
        (``mcycle``, ``minstret`` or their ``cycle``/``time``/``instret``
        aliases, the only state the snapshot leaves out),
        :meth:`~repro.sim.executor.Executor.replay_period` appends the
        ``(limit - n) // P`` further copies of the period that the
        simulation would have committed, with ``step`` shifted, and
        advances the step index and the counters to match.  Execution
        then continues normally up to the limit.  The result is
        bit-identical to simulating every copy: the snapshot holds
        everything that decides future commits (a DUT adds its
        microarchitectural, coverage and bug state, see
        :meth:`repro.rtl.harness.DutExecutor.periodic_state`).
        """
        return self._run_with_executor(program, max_steps)[0]

    def _run_with_executor(self, program: TestProgram, max_steps: Optional[int]
                           ) -> Tuple[ExecutionResult, Executor]:
        """:meth:`run`, also handing back the executor that ran ``program``.

        DUT models read their coverage and bug effects off it.  It is
        returned rather than kept on the model, which the executor refers
        back to: that pair would be a reference cycle.
        """
        memory = Memory(self.layout)
        memory.load_program_words(program.base_address, program.words())
        state = ArchState(pc=program.base_address)
        executor = self._make_executor(state, memory)
        self._prepare_run(executor, program)

        compiled = compile_program(program)
        entries = compiled.entries
        base_address = program.base_address
        limit = max_steps or self.executor_config.step_limit
        result = ExecutionResult()
        records = result.records
        end_address = compiled.end_address
        dirty_words: Optional[set] = None  # built lazily on first code store
        step_compiled = executor.step_compiled
        blocks = superblocks_for(program, compiled) if superblocks_enabled() else None
        run_block = executor.run_block
        csrs = state.csrs
        #: (pc, registers) at each arrival at a loop head -> commits so far.
        arrivals: Dict[Tuple, int] = {}
        #: (due commit count, period, periodic_state, counters) of the
        #: period being verified, or None.
        pending: Optional[Tuple] = None
        while not executor.halted:
            pc = state.pc
            if pc == end_address:
                result.halt_reason = HaltReason.PROGRAM_END
                break
            if not (base_address <= pc < end_address):
                result.halt_reason = HaltReason.PC_OUT_OF_RANGE
                break
            count = len(records)
            if count >= limit:
                result.halt_reason = HaltReason.STEP_LIMIT
                break
            last = records[-1] if count else None
            if last is not None and last.next_pc == pc <= last.pc:
                # Arrival at a taken backward transfer: a loop head.
                if pending is not None and count >= pending[0]:
                    due, period, snapshot, counters = pending
                    pending = None
                    if (count == due
                            and not any(r.mnemonic in _CSR_MNEMONICS
                                        and r.word >> 20 in _COUNTER_CSRS
                                        for r in records[-period:])
                            and executor.periodic_state() == snapshot):
                        executor.replay_period(
                            records, period, (limit - count) // period,
                            ((csrs[MINSTRET] - counters[0]) & MASK64,
                             (csrs[MCYCLE] - counters[1]) & MASK64))
                        continue
                key = (pc, tuple(state.regs))
                previous = arrivals.get(key)
                arrivals[key] = count
                if (previous is not None and pending is None
                        and limit - count >= 2 * (count - previous)):
                    pending = (2 * count - previous, count - previous,
                               executor.periodic_state(),
                               (csrs[MINSTRET], csrs[MCYCLE]))
            offset = pc - base_address
            if offset & 3:
                record = executor.step()  # misaligned fetch: generic path
            else:
                index = offset >> 2
                if dirty_words is not None and index in dirty_words:
                    record = executor.step()  # overwritten word: re-fetch
                else:
                    if blocks is not None:
                        block = blocks.at(index)
                        if (block is not None
                                and block.length <= limit - len(records)
                                and (dirty_words is None
                                     or dirty_words.isdisjoint(block.word_set))):
                            span = run_block(block, records)
                            if span is not None:
                                if dirty_words is None:
                                    dirty_words = set()
                                dirty_words.update(range(span[0], span[1] + 1))
                            continue
                    record = step_compiled(entries[index])
            if record is not None:
                records.append(record)
                mem_addr = record.mem_addr
                if mem_addr is not None:
                    # Records carry mem_addr only for committed memory
                    # *writes* (stores, AMOs, successful SCs).
                    span = dirty_word_span(mem_addr, record.mem_size or 1,
                                           base_address, end_address)
                    if span is not None:
                        # The store overlapped the code window: its compiled
                        # entries are stale from the next fetch on.
                        if dirty_words is None:
                            dirty_words = set()
                        dirty_words.update(range(span[0], span[1] + 1))
        else:
            # Loop exited because the executor halted itself (e.g. ecall).
            if executor.halt_reason is not None:
                result.halt_reason = executor.halt_reason

        result.steps = len(result.records)
        result.final_registers = tuple(state.regs)
        result.final_csrs = dict(state.csrs)
        self._finish_run(executor, result)
        return result, executor


class GoldenModel(ModelBase):
    """SPIKE-substitute: the architecturally correct reference model."""

    name = "golden"


class KeyedRunCache:
    """Bounded LRU cache of deterministic model runs, keyed by subclasses.

    Both the golden reference and the DUT models are deterministic
    functions of (program, step limit, model configuration), so their runs
    can be cached and shared.  Subclasses define what "model configuration"
    means by overriding :meth:`key`; everything else -- hit/miss/eviction
    counters, the LRU spill policy, stats -- is shared here so the two
    caches cannot drift apart.

    ``fallback`` optionally chains a second (usually longer-lived, e.g.
    process-level) cache behind this one: a miss here is served from the
    fallback before the model is actually run, and freshly computed runs
    are inserted into both levels.  The fallback keeps its own counters;
    this cache's ``hits``/``misses`` are unaffected by where a miss was
    ultimately served from, which is what keeps per-trial counter metadata
    independent of worker history (see ``docs/parallel.md``).

    Cached results are shared objects -- callers must treat them as
    read-only (every consumer does: the differential tester and the
    coverage database only read).
    """

    def __init__(self, max_entries: int = 4096,
                 fallback: Optional["KeyedRunCache"] = None) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.fallback = fallback
        self._entries: "OrderedDict[Tuple, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @staticmethod
    def key(model: ModelBase, program: TestProgram, step_limit: int) -> Tuple:
        """Cache key for one run (overridden per cache flavour)."""
        raise NotImplementedError

    # ------------------------------------------------------------- primitives
    def lookup(self, key: Tuple):
        """Return the entry for ``key`` (or ``None``), updating counters/LRU."""
        cached = self._entries.get(key)
        if cached is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return cached
        self.misses += 1
        return None

    def insert(self, key: Tuple, result: object) -> None:
        """Store ``result`` under ``key``, spilling the LRU entry if full."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self._entries[key] = result
            return
        while len(self._entries) >= self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1
        self._entries[key] = result

    def configure(self, max_entries: int) -> None:
        """Re-bound the cache, spilling LRU entries down to the new capacity."""
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    # ------------------------------------------------------------------- runs
    def get_or_run(self, model: ModelBase, program: TestProgram,
                   max_steps: Optional[int] = None):
        """Return the cached run for ``program``, running ``model`` on a miss."""
        limit = max_steps or model.executor_config.step_limit
        key = self.key(model, program, limit)
        cached = self.lookup(key)
        if cached is not None:
            return cached
        result = None
        if self.fallback is not None:
            result = self.fallback.lookup(key)
        if result is None:
            result = model.run(program, max_steps)
            if self.fallback is not None:
                self.fallback.insert(key, result)
        self.insert(key, result)
        return result

    def clear(self) -> None:
        self._entries.clear()

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "entries": len(self._entries),
                "max_entries": self.max_entries}

    def __len__(self) -> int:
        return len(self._entries)


class GoldenTraceCache(KeyedRunCache):
    """Program-keyed cache of golden-model execution results.

    The golden model is deterministic: the commit trace depends only on the
    encoded program words, the load address and the step limit.  Campaigns
    re-run the same seed programs constantly (MABFuzz arms replay their
    seeds; duplicate mutants are common), so caching the golden trace halves
    the per-iteration simulation cost for every repeated program.

    ``hits`` / ``misses`` counters are surfaced in the fuzzing-session stats.
    """

    @staticmethod
    def key(model: ModelBase, program: TestProgram,
            step_limit: int) -> Tuple:
        """Cache key: program content hash + step limit + model configuration.

        The model's executor config and memory layout are part of the key so
        a cache shared between sessions can never serve a trace computed
        under a different golden-model configuration.
        """
        return (program.fingerprint(), step_limit,
                model.executor_config, model.layout)

    def get_or_run(self, model: ModelBase, program: TestProgram,
                   max_steps: Optional[int] = None) -> ExecutionResult:
        """Return the cached trace for ``program``, running ``model`` on a miss."""
        return super().get_or_run(model, program, max_steps)
