"""Tests for the compiled-trace execution substrate.

The trace compiler (:mod:`repro.isa.compiled`) pre-decodes programs into
threaded code cut into superblocks; the shared run loop runs one block per
iteration instead of fetching and decoding.  Bit-identity of whole corpora
is pinned by ``test_hotpath_equivalence.py``; this module covers the
substrate's own mechanics and the cases where the loop hands a block less
than its whole span: the step limit, self-modifying code and misaligned
in-range program counters.  The fallback-path programs must reproduce the
golden and DUT run digests frozen under ``directed_fallbacks`` in
``hotpath_golden.json``, recorded with the fused loop and the since deleted
per-step loop asserted equal.
"""

import json

import pytest

from repro.exec.cache import (DutRunCache, configure_process_caches,
                              process_cache_stats)
from repro.fuzzing.mutation import MutationEngine
from repro.fuzzing.session import FuzzSession
from repro.isa import csr as csrdefs
from repro.isa.assembler import encode_instruction
from repro.isa.compiled import (
    CompiledProgram,
    compile_program,
    dirty_word_span,
    process_block_table,
    process_compiled_cache,
    superblocks_for,
    word_block,
)
from repro.isa.decoder import decode_word
from repro.isa.exceptions import TrapCause
from repro.isa.generator import SeedGenerator
from repro.isa.instruction import Instruction
from repro.isa.program import TestProgram
from repro.rtl import harness
from repro.rtl.bugs import InjectedBug
from repro.rtl.registry import make_dut
from repro.sim.executor import Executor, handler_for
from repro.sim.golden import GoldenModel, GoldenTraceCache
from repro.sim.memory import Memory
from repro.sim.state import ArchState
from repro.sim.trace import HaltReason
from repro.utils.lru import DEFAULT_CACHE_ENTRIES, LRUCache
from tests.sim.test_hotpath_equivalence import (FIXTURE_PATH, run_digest,
                                                trace_digest)

I = Instruction


def _program(*instructions):
    return TestProgram(instructions=tuple(instructions))


def _digest(result):
    return ([(step, r.pc, r.word, r.mnemonic, r.rd, r.rd_value, r.trap,
              r.mem_addr, r.mem_value, r.mem_size, r.csr_addr, r.csr_value,
              r.next_pc, r.trap_tval) for step, r in enumerate(result.records)],
            result.halt_reason, result.final_registers,
            sorted(result.final_csrs.items()))


#: golden and DUT run digests per ``fingerprint|max_steps`` of the
#: fallback-path programs below.
_FROZEN = json.loads(FIXTURE_PATH.read_text())["directed_fallbacks"]
#: every DUT, with its default bugs, under both coverage models.
_DUTS = [(name, model) for name in ("cva6", "rocket", "boom")
         for model in ("base", "csr")]


def _run_frozen(program, max_steps=None):
    """Golden digest of ``program``; its golden run and every DUT's run
    must match their frozen digests."""
    frozen = _FROZEN[f"{program.fingerprint()}|{max_steps}"]
    result = GoldenModel().run(program, max_steps=max_steps)
    assert trace_digest(result) == frozen["golden"]
    for name, model in _DUTS:
        run = make_dut(name, coverage_model=model).run(program, max_steps)
        assert run_digest(run) == frozen[f"{name}/{model}"], (name, model)
    return _digest(result)


class TestCompileProgram:
    def test_entries_mirror_decode(self):
        program = _program(I("addi", rd=1, rs1=0, imm=5),
                           I.illegal(0xFFFF_FFFF),
                           I("ecall"))
        compiled = compile_program(program)
        assert len(compiled) == 3
        assert compiled.base_address == program.base_address
        assert compiled.end_address == program.end_address()
        for word, (entry_word, instr, handler) in zip(program.words(),
                                                      compiled.entries):
            assert entry_word == word & 0xFFFF_FFFF
            assert instr is decode_word(word)  # shares the decode cache
            # Illegal words too: their handler raises the trap.
            assert handler is handler_for(instr) is not None

    def test_word_keyed_sharing(self):
        """Independently built twins share one compiled, golden and DUT
        cache entry; the same words at another base address share none."""
        body = (I("addi", rd=3, rs1=0, imm=9), I("ecall"))
        first = _program(*body)
        # A distinct program with the same content, built as a mutant is:
        # handed its words rather than assembling them.
        twin = _program(I("ecall")).with_instructions(
            body, "instr_insert", [encode_instruction(i) for i in body])
        moved = TestProgram(instructions=body,
                            base_address=first.base_address + 0x1000)
        assert first.words() == twin.words() == moved.words()
        compiled = compile_program(first)
        cache = process_compiled_cache()
        hits = cache.hits
        assert compile_program(first) is compiled  # served from the LRU
        assert compile_program(twin) is compiled  # word-keyed reuse
        assert cache.hits == hits + 2
        assert compile_program(moved).base_address == moved.base_address
        assert cache.hits == hits + 2  # another address: a miss
        golden, golden_runs = GoldenModel(), GoldenTraceCache()
        run = golden_runs.get_or_run(golden, first)
        assert golden_runs.get_or_run(golden, twin) is run
        assert golden_runs.get_or_run(golden, moved) is not run
        outcomes = DutRunCache()
        session = FuzzSession(make_dut("rocket"), dut_cache=outcomes)
        coverage = session.run_test(first).coverage
        assert session.run_test(twin).coverage is coverage
        assert session.run_test(moved).coverage is not coverage
        for runs in (golden_runs, outcomes):
            assert (runs.hits, runs.misses) == (1, 2)
        # Nothing is pinned on the program object: the LRU bound governs
        # all compiled-trace memory (the --cache-entries contract).
        assert "_compiled" not in first.__dict__
        assert not any(isinstance(value, CompiledProgram)
                       for value in vars(first).values())

    def test_lru_bound_and_stats(self):
        """The one LRU behind every process cache, used as the compiled
        cache uses it: program words and base address -> compiled program."""
        cache = LRUCache(max_entries=2)
        programs = [_program(I("addi", rd=1, rs1=0, imm=n), I("ecall"))
                    for n in range(3)]
        keys = [(program.words(), program.base_address) for program in programs]
        for key, program in zip(keys, programs):
            assert cache.lookup(key) is None
            cache.insert(key, compile_program(program))
        assert len(cache) == 2
        stats = cache.stats()
        assert stats["misses"] == 3 and stats["evictions"] == 1
        assert stats["entries"] == 2 and stats["max_entries"] == 2
        assert cache.lookup(keys[-1]) is compile_program(programs[-1])
        assert cache.stats()["hits"] == 1
        assert cache.lookup(keys[0]) is None  # spilled -> recompiled
        assert cache.stats()["misses"] == 4
        # Spill order: a lookup refreshes an entry, so after keys[1] is
        # looked up, keys[-1] is the least recently used and the next
        # insert spills it.
        assert cache.lookup(keys[1]) is not None
        cache.insert(keys[0], compile_program(programs[0]))
        assert cache.lookup(keys[-1]) is None
        assert cache.lookup(keys[1]) is not None
        # Re-inserting a present key refreshes it without a spill.
        cache.insert(keys[0], compile_program(programs[0]))
        assert cache.stats()["evictions"] == 2
        cache.configure(1)  # re-bound spills down to the most recent entry
        assert len(cache) == 1 and cache.stats()["evictions"] == 3
        assert cache.lookup(keys[0]) is not None
        with pytest.raises(ValueError):
            cache.configure(0)
        with pytest.raises(ValueError):
            LRUCache(max_entries=0)
        cache.clear()
        assert len(cache) == 0


class TestFallbackPaths:
    def test_self_modifying_store_executes_new_word(self):
        """A store into the code window invalidates the compiled entry.

        The program overwrites its own slot 4 (an ``addi x5, x0, 1``) with
        the encoding of ``addi x5, x0, 42`` before reaching it; the commit
        trace must show the *new* instruction, exactly as the fetch-based
        loop always behaved.
        """
        # Materialise the new word into x3 via lui+addi (the exact 32-bit
        # encoding does not fit an addi immediate on its own).
        new_word = encode_instruction(I("addi", rd=5, rs1=0, imm=42))
        upper = (new_word + 0x800) >> 12
        lower = new_word - (upper << 12)
        program = _program(
            I("lui", rd=1, imm=0x40000),         # x1 = 0x4000_0000 (code base)
            I("lui", rd=3, imm=upper),
            I("addi", rd=3, rs1=3, imm=lower),   # x3 = new_word
            I("sw", rs1=1, rs2=3, imm=20),       # overwrite slot 5
            I("addi", rd=6, rs1=0, imm=7),
            I("addi", rd=5, rs1=0, imm=1),       # slot 5: the victim
            I("ecall"),
        )
        result = GoldenModel().run(program)
        victim = [r for r in result.records if r.pc == program.base_address + 20]
        assert victim, "the overwritten slot must still execute"
        assert victim[0].word == new_word
        assert victim[0].rd == 5 and victim[0].rd_value == 42
        assert result.final_registers[5] == 42
        assert result.halt_reason is HaltReason.ECALL

    def test_self_modifying_store_matches_on_dut(self):
        """Golden and DUT take the same fallback on overwritten words."""
        new_word = encode_instruction(I("addi", rd=5, rs1=0, imm=42))
        upper = (new_word + 0x800) >> 12
        lower = new_word - (upper << 12)
        program = _program(
            I("lui", rd=1, imm=0x40000),
            I("lui", rd=3, imm=upper),
            I("addi", rd=3, rs1=3, imm=lower),
            I("sw", rs1=1, rs2=3, imm=20),
            I("addi", rd=6, rs1=0, imm=7),
            I("addi", rd=5, rs1=0, imm=1),
            I("ecall"),
        )
        golden = GoldenModel().run(program)
        dut = make_dut("rocket", bugs=[]).run(program)
        assert ([r.arch_key() for r in golden.records]
                == [r.arch_key() for r in dut.execution.records])

    def test_misaligned_mret_target_takes_generic_path(self):
        """mret into a misaligned in-range pc: generic step reports the fault."""
        program = _program(
            I("lui", rd=1, imm=0x40000),            # x1 = base
            I("addi", rd=1, rs1=1, imm=6),          # x1 = base + 6 (misaligned)
            I("csrrw", rd=0, rs1=1, csr=csrdefs.MEPC),
            I("mret"),                              # jump to base + 6
            I("addi", rd=2, rs1=0, imm=1),
            I("ecall"),
        )
        result = GoldenModel().run(program)
        assert result.halt_reason is HaltReason.PC_OUT_OF_RANGE
        final = result.records[-1]
        assert final.trap is not None
        assert final.trap.name == "INSTRUCTION_ADDRESS_MISALIGNED"
        assert final.trap_tval == program.base_address + 6

    def test_compiled_and_step_limit_agree(self):
        """An infinite loop still honours the step limit through the fast path."""
        program = _program(I("jal", rd=0, imm=0))  # tight self-loop
        result = GoldenModel().run(program, max_steps=17)
        assert result.halt_reason is HaltReason.STEP_LIMIT
        assert result.steps == 17


class TestDirtyWordSpan:
    """Boundary regressions for the shared code-window range math.

    Every consumer (the run loop's dirty-word set, both fused loops'
    abort checks) goes through :func:`dirty_word_span`, so these pins
    cover them all at once.
    """

    BASE = 0x4000_0000
    END = BASE + 16  # a four-word code window

    def test_aligned_word_store_inside_window(self):
        assert dirty_word_span(self.BASE + 8, 4, self.BASE, self.END) == (2, 2)

    def test_sd_across_an_interior_word_boundary(self):
        # An 8-byte store at +2 touches bytes 2..9: words 0, 1 and 2.
        assert dirty_word_span(self.BASE + 2, 8, self.BASE, self.END) == (0, 2)

    def test_sd_spanning_the_end_boundary_clamps(self):
        # Bytes 12..19: only word 3 is inside the window.
        assert dirty_word_span(self.BASE + 12, 8, self.BASE, self.END) == (3, 3)

    def test_store_at_end_address_misses(self):
        assert dirty_word_span(self.END, 8, self.BASE, self.END) is None

    def test_byte_store_just_below_base_misses(self):
        assert dirty_word_span(self.BASE - 1, 1, self.BASE, self.END) is None

    def test_store_spanning_in_from_below_clamps_to_word_zero(self):
        assert dirty_word_span(self.BASE - 4, 8, self.BASE, self.END) == (0, 0)
        assert dirty_word_span(self.BASE - 1, 4, self.BASE, self.END) == (0, 0)


class TestSuperblockFormation:
    def test_terminators_tails_and_illegal_fusion(self):
        program = _program(
            I("addi", rd=1, rs1=0, imm=1),            # 0 ┐
            I("addi", rd=2, rs1=0, imm=2),            # 1 │ block: branch tail
            I("beq", rs1=0, rs2=0, imm=8),            # 2 ┘
            I("addi", rd=3, rs1=0, imm=3),            # 3 ┐ block: CSR tail
            I("csrrs", rd=4, rs1=0, csr=csrdefs.MINSTRET),  # 4 ┘
            I("addi", rd=5, rs1=0, imm=5),            # 5 ┐
            I.illegal(0xFFFF_FFFF),                   # 6 │ block: illegal fused,
            I("addi", rd=6, rs1=0, imm=6),            # 7 │ SYSTEM tail
            I("ecall"),                               # 8 ┘
        )
        blocks = superblocks_for(program)
        words = program.words()
        head = blocks.at(0)
        assert (head.words, head.length) == (words[0:3], 3)
        assert head.entries[-1][1].mnemonic == "beq" and not head.csr_tail
        csr_block = blocks.at(3)
        assert (csr_block.words, csr_block.length) == (words[3:5], 2)
        assert csr_block.csr_tail
        tail = blocks.at(5)
        assert (tail.words, tail.length) == (words[5:9], 4)
        assert tail.entries[-1][1].mnemonic == "ecall" and not tail.csr_tail
        # The illegal word fused with a working handler.
        assert all(handler is not None for _, _, handler in tail.entries)
        # Every entry leads a block: a lone SYSTEM entry leads a block of one.
        ecall = blocks.at(8)
        assert (ecall.words, ecall.length) == (words[8:9], 1)
        # A block is its words: whatever leads at them gets the same one.
        assert word_block(words[8]) is ecall

    def test_every_system_instruction_closes_a_block(self):
        for mnemonic in ("ecall", "ebreak", "mret", "wfi"):
            program = _program(I("addi", rd=1, rs1=0, imm=1), I(mnemonic),
                               I("addi", rd=2, rs1=0, imm=2))
            blocks = superblocks_for(program)
            assert blocks.at(0).length == 2, mnemonic
            assert blocks.at(2).length == 1, mnemonic

    def test_prefix_drops_the_tail(self):
        program = _program(I("addi", rd=1, rs1=0, imm=1),
                           I("addi", rd=2, rs1=0, imm=2),
                           I("csrrs", rd=3, rs1=0, csr=csrdefs.MINSTRET))
        block = superblocks_for(program).at(0)
        assert block.csr_tail
        prefix = block.prefix(2)
        assert (prefix.words, prefix.length) == (program.words()[:2], 2)
        assert not prefix.csr_tail
        assert block.prefix(2) is prefix  # from the block table

    def test_lru_bound_and_stats(self):
        """The compiled entry is a program's only per-program cache entry;
        its blocks come from the process block table, which outlives a
        spill of the entry and counts its own lookups."""
        first, second = (_program(I("addi", rd=1, rs1=0, imm=n), I("ecall"))
                         for n in (1201, 1202))
        compiled = compile_program(first)
        assert superblocks_for(first) is compiled
        assert superblocks_for(first, compiled) is compiled
        block = superblocks_for(first).at(0)
        assert superblocks_for(first).at(0) is block  # looked up once
        compile_program(second)
        cache = process_compiled_cache()
        table = process_block_table()
        misses, evictions = cache.misses, cache.evictions
        try:
            configure_process_caches(1)  # spills all but `second`
            assert len(cache) == 1 and cache.evictions > evictions
            assert cache.misses == misses
            # The spill dropped the trace, not the blocks: the rebuilt
            # program gets the same block back from the table.
            table_hits, table_misses = table.hits, table.misses
            rebuilt = superblocks_for(first)
            assert cache.misses == misses + 1
            assert rebuilt is compile_program(first)
            assert rebuilt is not compiled
            assert rebuilt.at(0) is block
            assert (table.hits, table.misses) == (table_hits + 1, table_misses)
            stats = process_cache_stats()
            counters = ("hits", "misses", "evictions")
            assert ({counter: stats[f"superblock_{counter}"] for counter in counters}
                    == {counter: table.stats()[counter] for counter in counters})
            assert ([stats[f"superblock_{counter}"] for counter in counters]
                    != [stats[f"compiled_trace_{counter}"] for counter in counters])
        finally:
            configure_process_caches(None)


class TestBlockSharing:
    """A block is a function of its words: one process table serves every
    program holding them, with every plan a DUT attached to the block."""

    #: three blocks: slots 0-2, 3-5 and 6-7.
    PARENT = (I("addi", rd=1, rs1=0, imm=1301), I("addi", rd=2, rs1=1, imm=1),
              I("beq", rs1=0, rs2=0, imm=4),
              I("addi", rd=3, rs1=0, imm=1302), I("addi", rd=4, rs1=3, imm=1),
              I("bne", rs1=0, rs2=0, imm=4),
              I("addi", rd=5, rs1=0, imm=1303), I("ecall"))
    LEADERS = (0, 3, 6)

    def _mutant(self, operator, seed):
        parent = _program(*self.PARENT)
        engine = MutationEngine(rng=seed)
        chosen = next(op for op in engine.operators if op.name == operator)
        return parent, engine.mutate_once(parent, chosen)

    def test_rd_change_mutant_reuses_untouched_blocks(self):
        parent, mutant = self._mutant("rd_change", 7)
        (slot,) = [index for index, (old, new)
                   in enumerate(zip(parent.words(), mutant.words())) if old != new]
        parent_blocks = superblocks_for(parent)
        before = [parent_blocks.at(leader) for leader in self.LEADERS]
        hits, misses = (process_cache_stats()[f"superblock_{counter}"]
                        for counter in ("hits", "misses"))
        after = [superblocks_for(mutant).at(leader) for leader in self.LEADERS]
        stats = process_cache_stats()
        assert stats["superblock_hits"] == hits + 2
        assert stats["superblock_misses"] == misses + 1
        for leader, old, new in zip(self.LEADERS, before, after):
            holds_slot = leader <= slot < leader + old.length
            assert (new is not old) == holds_slot, (leader, slot)

    def test_instr_insert_mutant_reuses_the_blocks_after_it(self):
        parent, mutant = self._mutant("instr_insert", 3)
        assert len(mutant.words()) == len(parent.words()) + 1
        slot = next(index for index, (old, new)
                    in enumerate(zip(parent.words(), mutant.words())) if old != new)
        parent_blocks, mutant_blocks = superblocks_for(parent), superblocks_for(mutant)
        later = [leader for leader in self.LEADERS if leader >= slot]
        assert later
        for leader in later:
            assert mutant_blocks.at(leader + 1) is parent_blocks.at(leader)

    def test_configure_bounds_the_block_table(self):
        table = process_block_table()
        programs = [_program(I("addi", rd=1, rs1=0, imm=n), I("ecall"))
                    for n in (1311, 1312, 1313)]
        for program in programs:
            superblocks_for(program).at(0)
        evictions = table.evictions
        try:
            configure_process_caches(1)
            assert table.max_entries == 1 and len(table) == 1
            assert table.evictions >= evictions + 2
            assert process_cache_stats()["superblock_evictions"] == table.evictions
        finally:
            configure_process_caches(None)
        assert table.max_entries == DEFAULT_CACHE_ENTRIES

    def test_static_memo_stays_within_its_bound(self):
        """The shared block after a jump meets a window per (A, B) below;
        its memo is cleared on overflow, and every run still emits what
        a run from an empty memo does."""
        tail = (I("add", rd=6, rs1=1, rs2=2), I("ecall"))
        dut = make_dut("rocket", bugs=[])
        sizes = []
        for first in range(1, 32):
            for second in (1, 2, 3):
                program = _program(I("addi", rd=first, rs1=0, imm=1),
                                   I("jal", rd=second, imm=4), *tail)
                run = dut.run(program)
                memo = superblocks_for(program).at(2).static_masks
                sizes.append(len(memo))
                kept = dict(memo)
                memo.clear()
                assert dut.run(program).coverage == run.coverage
                memo.clear()
                memo.update(kept)
        assert max(sizes) == harness._BLOCK_MEMO_MAX
        assert any(later < earlier for earlier, later in zip(sizes, sizes[1:]))

    def test_cut_scanned_once_per_trigger_set(self):
        """A block that DUTs with different bug sets share keeps a cut per
        set: run alternately by Rocket and CVA6, it is scanned once each."""
        scanned = []

        def declaring(name):
            def triggers_on(instr, word):
                scanned.append(name)
                return False
            return type(f"Declares{name}", (InjectedBug,),
                        {"bug_id": name, "triggers_on": staticmethod(triggers_on)})()

        program = _program(I("addi", rd=1, rs1=0, imm=1321),
                           I("addi", rd=2, rs1=1, imm=1), I("ecall"))
        rocket = make_dut("rocket", bugs=[declaring("R")])
        cva6 = make_dut("cva6", bugs=[declaring("C")])
        for _ in range(3):
            for dut in (rocket, cva6):
                dut.run(program)
        assert scanned == ["R"] * 3 + ["C"] * 3
        assert len(superblocks_for(program).at(0).bug_cuts) == 2


class TestSuperblockSemantics:
    """The fused loops on the cases the run loop cuts a block short for."""

    def test_partial_block_step_limit_truncation(self):
        # An 11-entry block truncated mid-block: the run loop hands over
        # the block's prefix and stops on the exact step.
        program = _program(*[I("addi", rd=1, rs1=1, imm=1) for _ in range(10)],
                           I("ecall"))
        for limit in (5, 10):
            on = _run_frozen(program, max_steps=limit)
            assert on[1] is HaltReason.STEP_LIMIT
            assert len(on[0]) == limit

    def test_csr_tail_reads_exact_retirement_counters(self):
        # MINSTRET/MCYCLE updates are batched to the block exit; a CSR
        # closing the block must still read architecturally exact values.
        program = _program(
            I("addi", rd=1, rs1=0, imm=1),
            I("addi", rd=2, rs1=0, imm=2),
            I("csrrs", rd=5, rs1=0, csr=csrdefs.MINSTRET),
            I("addi", rd=3, rs1=0, imm=3),
            I("csrrs", rd=6, rs1=0, csr=csrdefs.MINSTRET),
            I("ecall"),
        )
        _run_frozen(program)
        result = GoldenModel().run(program)
        assert result.final_registers[5] == 2  # two retirements before it
        assert result.final_registers[6] == 4

    def test_fused_illegal_word_traps_identically(self):
        program = _program(
            I("addi", rd=1, rs1=0, imm=5),
            I.illegal(0xFFFF_FFFF),
            I("addi", rd=2, rs1=0, imm=7),
            I("ecall"),
        )
        _run_frozen(program)
        result = GoldenModel().run(program)
        trap_record = result.records[1]
        assert trap_record.trap is not None
        assert trap_record.trap.name == "ILLEGAL_INSTRUCTION"
        assert trap_record.trap_tval == 0xFFFF_FFFF
        assert result.final_registers[2] == 7  # execution fell through

    def test_store_into_a_later_block_invalidates_it(self):
        # The store commits in the block before the branch; the victim
        # word lives in the *next* block.  Crossing the boundary, the
        # dirty-word set must force a re-fetch of the new encoding.
        new_word = encode_instruction(I("addi", rd=5, rs1=0, imm=42))
        upper = (new_word + 0x800) >> 12
        lower = new_word - (upper << 12)
        program = _program(
            I("lui", rd=1, imm=0x40000),       # 0: x1 = code base
            I("lui", rd=3, imm=upper),         # 1
            I("addi", rd=3, rs1=3, imm=lower), # 2: x3 = new_word
            I("sw", rs1=1, rs2=3, imm=24),     # 3: overwrite slot 6
            I("beq", rs1=0, rs2=0, imm=4),     # 4: block boundary
            I("addi", rd=6, rs1=0, imm=7),     # 5
            I("addi", rd=5, rs1=0, imm=1),     # 6: the victim
            I("ecall"),                        # 7
        )
        _run_frozen(program)
        result = GoldenModel().run(program)
        assert result.final_registers[5] == 42

    def test_self_modifying_and_misaligned_mret_agree_with_unfused(self):
        # The fallback-path programs from TestFallbackPaths: aborting a
        # block mid-flight, re-fetching an overwritten word and faulting
        # on a misaligned fetch reproduce the runs the unfused loop made.
        new_word = encode_instruction(I("addi", rd=5, rs1=0, imm=42))
        upper = (new_word + 0x800) >> 12
        lower = new_word - (upper << 12)
        self_modifying = _program(
            I("lui", rd=1, imm=0x40000),
            I("lui", rd=3, imm=upper),
            I("addi", rd=3, rs1=3, imm=lower),
            I("sw", rs1=1, rs2=3, imm=20),
            I("addi", rd=6, rs1=0, imm=7),
            I("addi", rd=5, rs1=0, imm=1),
            I("ecall"),
        )
        misaligned_mret = _program(
            I("lui", rd=1, imm=0x40000),
            I("addi", rd=1, rs1=1, imm=6),
            I("csrrw", rd=0, rs1=1, csr=csrdefs.MEPC),
            I("mret"),
            I("addi", rd=2, rs1=0, imm=1),
            I("ecall"),
        )
        for program in (self_modifying, misaligned_mret):
            _run_frozen(program)

class TestSystemTails:
    """Blocks ending in ``ecall`` halt, blocks ending in ``mret`` exit at
    ``mepc``, and a misaligned ``mepc`` faults on the fetch."""

    def test_block_ending_in_ecall_halts(self):
        program = _program(I("addi", rd=1, rs1=0, imm=1),
                           I("addi", rd=2, rs1=1, imm=1),
                           I("ecall"),
                           I("addi", rd=3, rs1=0, imm=3))
        block = superblocks_for(program).at(0)
        assert block.length == 3
        memory = Memory()
        memory.load_program_words(program.base_address, program.words())
        executor = Executor(ArchState(pc=program.base_address), memory)
        executor.code_window = (program.base_address, program.end_address())
        records = []
        assert executor.run_block(block, records) is None
        assert executor.halted and executor.halt_reason is HaltReason.ECALL
        assert [r.mnemonic for r in records] == ["addi", "addi", "ecall"]
        assert records[-1].trap is TrapCause.ECALL_FROM_M
        assert executor.state.pc == program.base_address + 12
        golden = GoldenModel().run(program)
        assert golden.halt_reason is HaltReason.ECALL
        assert golden.steps == 3 and golden.final_registers[3] == 0
        for name, model in _DUTS:
            run = make_dut(name, coverage_model=model).run(program)
            assert run.execution.halt_reason is HaltReason.ECALL
            assert ([r.arch_key() for r in run.execution.records]
                    == [r.arch_key() for r in golden.records])

    def test_block_ending_in_mret_exits_at_mepc(self):
        base = 0x4000_0000
        program = _program(
            I("lui", rd=1, imm=0x40000),              # 0 ┐ x1 = base
            I("addi", rd=1, rs1=1, imm=24),           # 1 │ x1 = base + 24
            I("csrrw", rd=0, rs1=1, csr=csrdefs.MEPC),  # 2 ┘
            I("addi", rd=2, rs1=0, imm=1),            # 3 ┐ block: mret tail
            I("mret"),                                # 4 ┘ -> slot 6
            I("addi", rd=3, rs1=0, imm=5),            # 5 (skipped)
            I("addi", rd=4, rs1=0, imm=7),            # 6
            I("ecall"),                               # 7
        )
        assert program.base_address == base
        block = superblocks_for(program).at(3)
        assert block.length == 2 and block.entries[-1][1].mnemonic == "mret"
        golden = GoldenModel().run(program)
        assert [r.pc - base for r in golden.records] == [0, 4, 8, 12, 16, 24, 28]
        assert golden.records[4].next_pc == base + 24
        assert golden.final_registers[3] == 0 and golden.final_registers[4] == 7
        assert golden.halt_reason is HaltReason.ECALL
        for name, model in _DUTS:
            run = make_dut(name, coverage_model=model).run(program)
            assert ([r.arch_key() for r in run.execution.records]
                    == [r.arch_key() for r in golden.records])

    def test_mret_to_misaligned_mepc_commits_the_fetch_fault(self):
        program = _program(
            I("lui", rd=1, imm=0x40000),
            I("addi", rd=1, rs1=1, imm=6),            # base + 6: misaligned
            I("csrrw", rd=0, rs1=1, csr=csrdefs.MEPC),
            I("mret"),
            I("addi", rd=2, rs1=0, imm=1),
            I("ecall"),
        )
        target = program.base_address + 6
        golden = GoldenModel().run(program)
        assert golden.halt_reason is HaltReason.PC_OUT_OF_RANGE
        assert golden.steps == 5
        fault = golden.records[-1]
        assert (fault.pc, fault.word, fault.mnemonic) == (target, 0, "illegal")
        assert fault.trap is TrapCause.INSTRUCTION_ADDRESS_MISALIGNED
        assert fault.trap_tval == target and fault.next_pc == target + 4
        csrs = golden.final_csrs
        assert csrs[csrdefs.MEPC] == target and csrs[csrdefs.MTVAL] == target
        assert csrs[csrdefs.MCAUSE] == int(TrapCause.INSTRUCTION_ADDRESS_MISALIGNED)
        # The fault retires nothing: four instructions retired.
        assert csrs[csrdefs.MINSTRET] == 4 and csrs[csrdefs.MCYCLE] == 4
        for name, model in _DUTS:
            dut = make_dut(name, coverage_model=model)
            run = dut.run(program)
            assert ([r.arch_key() for r in run.execution.records]
                    == [r.arch_key() for r in golden.records])
            assert run.execution.halt_reason is HaltReason.PC_OUT_OF_RANGE
            # ... and emits no coverage: stopping just before it covers
            # exactly as much.
            before = dut.run(program, max_steps=4)
            assert before.execution.halt_reason is HaltReason.STEP_LIMIT
            assert before.coverage == run.coverage, (name, model)


class TestCorpusSanity:
    def test_random_programs_unaffected_by_repeat_compilation(self):
        golden = GoldenModel()
        for program in SeedGenerator(rng=5).generate_many(5):
            first = golden.run(program)
            second = golden.run(program)
            assert ([r.arch_key() for r in first.records]
                    == [r.arch_key() for r in second.records])
            assert first.final_csrs == second.final_csrs
