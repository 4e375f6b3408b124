"""The golden reference model and the shared program-run loop.

:class:`ModelBase` owns the run loop (load program, step until halt, collect
the commit trace); :class:`GoldenModel` is the reference instantiation using
the plain :class:`~repro.sim.executor.Executor`.  DUT models
(:mod:`repro.rtl`) reuse the same run loop with an instrumented executor, so
that a defect-free DUT is trace-identical to the golden model by
construction -- exactly the property differential testing relies on.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.isa.compiled import (_CSR_MNEMONICS, compile_program,
                                superblocks_for, word_block)
from repro.isa.csr import CYCLE, INSTRET, MCYCLE, MINSTRET, TIME
from repro.isa.program import TestProgram
from repro.sim.executor import Executor, ExecutorConfig
from repro.sim.memory import DEFAULT_LAYOUT, Memory, MemoryLayout
from repro.sim.state import ArchState
from repro.sim.trace import ExecutionResult, HaltReason
from repro.utils.bits import MASK64
from repro.utils.lru import LRUCache

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
        (:func:`repro.isa.compiled.compile_program`), cut into fused
        **superblocks** (:func:`repro.isa.compiled.superblocks_for`): an
        in-range, aligned ``pc`` indexes the block leading there, and
        :meth:`Executor.run_block` retires the whole block -- every
        instruction commits inside one.  The loop hands over less than
        the block in two cases:

        * fewer than ``block.length`` steps remain under the step limit
          -> the block's prefix up to the limit
          (:meth:`~repro.isa.compiled.Superblock.prefix`);
        * a store overwrote one of the block's words -> the prefix before
          the first such word, and an overwritten word at the pc runs
          alone, re-fetched and decoded afresh
          (:func:`repro.isa.compiled.word_block`).

        Committed stores that overlap the code window mark their word
        slots dirty (range math shared with the fused loops through
        :func:`repro.isa.compiled.dirty_word_span`), so self-modifying
        programs execute exactly as if every word were fetched -- a store
        into the middle of a fused block aborts it and every subsequent
        instruction is re-fetched.  A misaligned in-range ``pc``
        (reachable via ``mret`` with a software-seeded ``mepc``) commits
        the fetch fault (:meth:`Executor.fetch_fault`) and halts the run.

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
        simulation would have committed -- the period's own records, by
        reference, since a record's step is its index -- and advances the
        counters to match.  Execution then continues normally up to the
        limit.  The result is bit-identical to simulating every copy: the
        snapshot holds everything that decides future commits (a DUT adds
        its microarchitectural, coverage and bug state, see
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
        base_address = program.base_address
        end_address = compiled.end_address
        executor.code_window = (base_address, end_address)
        limit = max_steps or self.executor_config.step_limit
        result = ExecutionResult()
        records = result.records
        dirty_words: Optional[set] = None  # built lazily on first code store
        blocks = superblocks_for(program, compiled)
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
                records.append(executor.fetch_fault(pc))
                result.halt_reason = HaltReason.PC_OUT_OF_RANGE
                break
            index = offset >> 2
            if dirty_words is None:
                block = blocks.at(index)
            elif index in dirty_words:
                block = word_block(memory.fetch_word(pc))
            else:
                block = blocks.at(index)
                span = range(index, index + block.length)
                if not dirty_words.isdisjoint(span):
                    block = block.prefix(min(dirty_words.intersection(span))
                                         - index)
            if block.length > limit - count:
                block = block.prefix(limit - count)
            span = run_block(block, records)
            if span is not None:
                # A store overlapped the code window: its compiled entries
                # are stale from the next fetch on.
                if dirty_words is None:
                    dirty_words = set()
                dirty_words.update(range(span[0], span[1] + 1))
        else:
            # Loop exited because the executor halted itself (ecall).
            result.halt_reason = executor.halt_reason

        result.steps = len(result.records)
        result.final_registers = tuple(state.regs)
        result.final_csrs = dict(state.csrs)
        self._finish_run(executor, result)
        return result, executor


class GoldenModel(ModelBase):
    """SPIKE-substitute: the architecturally correct reference model."""

    name = "golden"


class KeyedRunCache(LRUCache):
    """Bounded LRU cache of deterministic model runs, keyed by subclasses.

    Both the golden reference and the DUT models are deterministic
    functions of (program, step limit, model configuration), so their runs
    can be cached and shared.  Subclasses define what "model configuration"
    means by overriding :meth:`key`; the LRU itself -- counters, spill
    policy, re-bound, stats -- is :class:`~repro.utils.lru.LRUCache`.

    Cached results are shared objects -- callers must treat them as
    read-only (every consumer does: the differential tester and the
    coverage database only read).
    """

    @staticmethod
    def key(model: ModelBase, program: TestProgram, step_limit: int) -> Tuple:
        """Cache key for one run (overridden per cache flavour)."""
        raise NotImplementedError

    def get_or_run(self, model: ModelBase, program: TestProgram,
                   max_steps: Optional[int] = None):
        """Return the cached run for ``program``, running ``model`` on a miss."""
        limit = max_steps or model.executor_config.step_limit
        key = self.key(model, program, limit)
        result = self.lookup(key)
        if result is None:
            result = model.run(program, max_steps)
            self.insert(key, result)
        return result


class GoldenTraceCache(KeyedRunCache):
    """Program-keyed cache of golden-model execution results.

    The golden model is deterministic: the commit trace depends only on the
    encoded program words, the load address and the step limit.  A process
    keeps one (:func:`process_golden_cache`), which
    :meth:`repro.fuzzing.session.FuzzSession.run_test` consults only for a
    test in which a bug fired, so a replayed trigger runs the reference
    model once per process.
    """

    @staticmethod
    def key(model: ModelBase, program: TestProgram,
            step_limit: int) -> Tuple:
        """Cache key: program words + base address + step limit + model configuration.

        The model's executor config and memory layout are part of the key so
        a cache shared between sessions can never serve a trace computed
        under a different golden-model configuration.
        """
        return (program.words(), program.base_address, step_limit,
                model.executor_config, model.layout)


_PROCESS_GOLDEN_CACHE = GoldenTraceCache()


def process_golden_cache() -> GoldenTraceCache:
    """The calling process's one golden-trace cache.

    It lives here rather than in :mod:`repro.exec.cache`, which bounds it
    and reads its counters with the other process caches, because the
    fuzzing session uses it and :mod:`repro.exec` imports the fuzzing
    layer.
    """
    return _PROCESS_GOLDEN_CACHE
