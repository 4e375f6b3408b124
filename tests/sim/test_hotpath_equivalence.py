"""Trace equivalence of the optimised hot path against pre-rewrite fixtures.

The simulation substrate (decoder tables + decode cache, table-dispatched
executor, bytearray memory) must be *bit-identical* to the original
straight-line implementation: same commit records, same final registers and
CSRs, same halt reasons.  This module pins that property to golden fixtures
recorded from the pre-rewrite implementation (see ``record_hotpath_fixtures``
in this file): a deterministic ~200-program corpus -- random seeds, mutated
programs (including illegal words produced by bit-level mutation) and
hand-built corner cases -- is digested per program and compared digest by
digest.

To re-record the fixtures (only after intentionally changing architectural
semantics, never to paper over a regression)::

    PYTHONPATH=src:. python tests/sim/test_hotpath_equivalence.py --record
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.fuzzing.mutation import MutationEngine
from repro.isa import csr as csrdefs
from repro.isa.generator import SeedGenerator
from repro.isa.instruction import Instruction
from repro.isa.program import TestProgram
from repro.isa.scenarios import TrapScenarioGenerator
from repro.rtl.registry import make_dut
from repro.sim.golden import GoldenModel

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "hotpath_golden.json"

CORPUS_SEED = 20260728
NUM_SEEDS = 120
NUM_MUTATED_PARENTS = 40
MUTANTS_PER_PARENT = 2
DUT_NAMES = ("cva6", "rocket", "boom")
DUT_PROGRAMS = 25        # corpus prefix run through each clean DUT
BUGGY_PROGRAMS = 15      # corpus prefix run through a fully-bugged rocket

# Trap-heavy extension (recorded when the trap/CSR scenario subsystem
# landed): dedicated corpus whose every program drives the
# mcause/mepc/mtval update paths, pinned under separate fixture keys so
# the original corpus digests stay untouched.
TRAP_SEED = 20260729
NUM_TRAP_SEEDS = 40
TRAP_DUT_PROGRAMS = 20   # trap-corpus prefix run through each clean DUT
TRAP_BUGGY_PROGRAMS = 12 # trap-corpus prefix through a fully-bugged rocket

# CVA6 bug-set extension (recorded before bug-injected DUTs moved onto the
# fused superblock loop): CVA6 with its full V1-V6 set under both
# coverage models, over the whole user corpus, the whole trap corpus and
# hand-built programs that fire each bug, several of them mid-block.
# These digests cover the coverage set, the fired bugs and each bug's
# first effect step as well as the trace (see ``run_digest``).
COVERAGE_MODELS = ("base", "csr")
BUG_SET_KEYS = ("cva6_buggy", "trap_cva6_buggy", "corner_cva6_buggy")


def _corner_programs() -> list:
    """Hand-built programs hitting illegal words, traps and CSR/AMO paths."""
    I = Instruction
    programs = [
        # All-zero and all-one words are the canonical illegal encodings.
        [I.illegal(0x0000_0000), I.illegal(0xFFFF_FFFF), I("ecall")],
        # Misaligned branch target, then fall through to a misaligned jalr.
        [I("addi", rd=1, rs1=0, imm=3),
         I("beq", rs1=0, rs2=0, imm=2),
         I("jalr", rd=1, rs1=1, imm=0),
         I("ecall")],
        # Out-of-window load/store (access faults, V5's trigger).
        [I("lui", rd=2, imm=0x10000),
         I("lw", rd=3, rs1=2, imm=0),
         I("sd", rs1=2, rs2=3, imm=8),
         I("ecall")],
        # Misaligned load within the window.
        [I("lui", rd=2, imm=0x40004),
         I("lh", rd=3, rs1=2, imm=1),
         I("ld", rd=4, rs1=2, imm=4),
         I("ecall")],
        # CSR reads/writes incl. an unimplemented address and a read-only write.
        [I("csrrwi", rd=1, imm=7, csr=0x340),
         I("csrrs", rd=2, rs1=0, csr=0x340),
         I("csrrw", rd=3, rs1=1, csr=0x7B0),
         I("csrrw", rd=4, rs1=1, csr=0xF11),
         I("csrrci", rd=5, imm=0, csr=0xC00),
         I("ecall")],
        # LR/SC success + failure and an AMO round trip.
        [I("lui", rd=2, imm=0x40004),
         I("addi", rd=3, rs1=0, imm=42),
         I("lr.d", rd=4, rs1=2),
         I("sc.d", rd=5, rs1=2, rs2=3),
         I("sc.d", rd=6, rs1=2, rs2=3),
         I("amoadd.w", rd=7, rs1=2, rs2=3, aq=1),
         I("ecall")],
        # ebreak (breakpoint trap) then mret, fence paths and wfi.
        [I("ebreak"), I("fence", imm=0xFF), I("fence.i"), I("wfi"),
         I("mret"), I("ecall")],
        # Divide-by-zero / overflow corners for the M extension.
        [I("addi", rd=1, rs1=0, imm=-1),
         I("lui", rd=2, imm=0x80000),
         I("div", rd=3, rs1=2, rs2=0),
         I("divw", rd=4, rs1=2, rs2=1),
         I("rem", rd=5, rs1=2, rs2=1),
         I("remuw", rd=6, rs1=1, rs2=0),
         I("ecall")],
    ]
    return [TestProgram(instructions=tuple(body)) for body in programs]


def build_corpus() -> list:
    """Deterministic ~200-program corpus: seeds + mutants + corner cases."""
    generator = SeedGenerator(rng=CORPUS_SEED)
    programs = list(generator.generate_many(NUM_SEEDS))
    engine = MutationEngine(rng=CORPUS_SEED + 1)
    for parent in programs[:NUM_MUTATED_PARENTS]:
        programs.extend(engine.mutate(parent, count=MUTANTS_PER_PARENT))
    programs.extend(_corner_programs())
    return programs


def _trap_corner_programs() -> list:
    """Hand-built programs pinning the mcause/mepc/mtval update semantics."""
    I = Instruction
    programs = [
        # Back-to-back traps of different causes: every one must rewrite
        # mcause/mepc/mtval (checked via the final-CSR digest) and resume
        # at the next instruction.
        [I.illegal(0x0000_0000),
         I("lw", rd=3, rs1=0, imm=1),
         I("ebreak"),
         I("csrrs", rd=4, rs1=0, csr=csrdefs.MCAUSE),
         I("csrrs", rd=5, rs1=0, csr=csrdefs.MEPC),
         I("csrrs", rd=6, rs1=0, csr=csrdefs.MTVAL),
         I("ecall")],
        # Software writes mcause/mepc/mtval directly, then a real trap
        # overwrites them -- the interleaving both orders.
        [I("csrrwi", rd=0, imm=13, csr=csrdefs.MCAUSE),
         I("csrrwi", rd=0, imm=8, csr=csrdefs.MEPC),
         I("csrrwi", rd=0, imm=21, csr=csrdefs.MTVAL),
         I.illegal(0xFFFF_FFFE),
         I("csrrwi", rd=0, imm=5, csr=csrdefs.MTVAL),
         I("ecall")],
        # mret bounces through a software-seeded mepc (a misaligned one
        # first: the jump target check must fire before the redirect).
        [I("csrrwi", rd=0, imm=8, csr=csrdefs.MEPC),
         I("ebreak"),
         I("mret"),
         I("ecall")],
        # Misaligned branch target and jalr: mtval carries the bad target.
        [I("beq", rs1=0, rs2=0, imm=6),
         I("addi", rd=7, rs1=0, imm=6),
         I("jalr", rd=1, rs1=7, imm=0),
         I("ecall")],
    ]
    return [TestProgram(instructions=tuple(body)) for body in programs]


def build_trap_corpus() -> list:
    """Deterministic trap-heavy corpus: scenario seeds + trap corner cases."""
    generator = TrapScenarioGenerator(rng=TRAP_SEED)
    programs = list(generator.generate_many(NUM_TRAP_SEEDS))
    programs.extend(_trap_corner_programs())
    return programs


def _bug_corner_programs() -> list:
    """Hand-built programs firing each CVA6 bug, mostly inside superblocks."""
    I = Instruction
    data_upper = 0x40004
    # opcode OP, funct3 0, reserved one-hot funct7 0x04: V2 executes it as add.
    v2_word = (0x04 << 25) | (7 << 20) | (6 << 15) | (5 << 7) | 0x33
    programs = [
        # V1: fence.i leading a block with no store in the window (silent),
        # then twice right after a store, mid-block and at a block leader.
        [I("fence.i"),
         I("lui", rd=10, imm=data_upper),
         I("addi", rd=5, rs1=0, imm=9),
         I("sw", rs1=10, rs2=5, imm=4),
         I("fence.i"),
         I("fence.i"),
         I("csrrs", rd=6, rs1=0, csr=csrdefs.MINSTRET),
         I("ecall")],
        # V2: a reserved-funct7 word between ALU ops, next to illegal words
        # it does not touch.
        [I("addi", rd=6, rs1=0, imm=11),
         I("addi", rd=7, rs1=0, imm=31),
         I.illegal(v2_word),
         I.illegal(0x0000_007F),
         I("add", rd=8, rs1=5, rs2=6),
         I.illegal(v2_word),
         I("ecall")],
        # V3: an access fault, then an illegal word, a misaligned load and
        # an ebreak inside its window -- each reports the stale cause.
        [I("ld", rd=5, rs1=0, imm=0),
         I.illegal(0x0000_007F),
         I("lui", rd=2, imm=data_upper),
         I("lw", rd=3, rs1=0, imm=8),
         I("lh", rd=4, rs1=2, imm=1),
         I("lw", rd=3, rs1=0, imm=16),
         I("ebreak"),
         I("csrrs", rd=6, rs1=0, csr=csrdefs.MCAUSE),
         I("ecall")],
        # V4: an AMO on a line an earlier non-zero store dirtied.
        [I("lui", rd=10, imm=data_upper),
         I("addi", rd=5, rs1=0, imm=77),
         I("sd", rs1=10, rs2=5, imm=0),
         I("amoadd.d", rd=6, rs1=10, rs2=0),
         I("lr.d", rd=7, rs1=10),
         I("sc.d", rd=8, rs1=10, rs2=5),
         I("ecall")],
        # V5: loads, stores and atomics to the unmapped high range; the
        # swallowed faults commit as no-ops (atomics still emit coverage).
        [I("addi", rd=5, rs1=0, imm=-1),
         I("andi", rd=5, rs1=5, imm=-8),
         I("ld", rd=6, rs1=5, imm=0),
         I("amoadd.d", rd=7, rs1=5, rs2=0),
         I("lr.d", rd=8, rs1=5),
         I("sd", rs1=5, rs2=6, imm=0),
         I("sc.d", rd=9, rs1=5, rs2=6),
         I("csrrs", rd=10, rs1=0, csr=csrdefs.MCAUSE),
         I("ecall")],
        # V6: read and write the broken debug CSRs, around a real trap.
        [I("csrrs", rd=5, rs1=0, csr=0x7B0),
         I("ld", rd=6, rs1=0, imm=0),
         I("csrrw", rd=7, rs1=5, csr=0x7A0),
         I("csrrw", rd=8, rs1=5, csr=0x180),
         I("ecall")],
        # Every bug in one straight-line run.
        [I("lui", rd=10, imm=data_upper),
         I("addi", rd=5, rs1=0, imm=5),
         I("sd", rs1=10, rs2=5, imm=0),
         I("fence.i"),
         I("amoor.d", rd=6, rs1=10, rs2=5),
         I.illegal(v2_word),
         I("ld", rd=7, rs1=0, imm=0),
         I.illegal(0xFFFF_FFFF),
         I("addi", rd=8, rs1=0, imm=-1),
         I("lw", rd=9, rs1=8, imm=0),
         I("csrrs", rd=11, rs1=0, csr=0x7B1),
         I("ecall")],
    ]
    return [TestProgram(instructions=tuple(body)) for body in programs]


def trace_digest(execution) -> str:
    """Digest every architecturally visible aspect of one program run."""
    h = hashlib.sha256()
    for r in execution.records:
        h.update(repr((
            r.step, r.pc, r.word, r.mnemonic, r.rd, r.rd_value,
            None if r.trap is None else r.trap.name,
            r.mem_addr, r.mem_value, r.mem_size,
            r.csr_addr, r.csr_value, r.next_pc,
        )).encode())
    h.update(repr(execution.halt_reason.value).encode())
    h.update(repr(tuple(execution.final_registers)).encode())
    h.update(repr(sorted(execution.final_csrs.items())).encode())
    return h.hexdigest()


def run_digest(run) -> str:
    """Digest one DUT run: its trace, coverage set and bug bookkeeping."""
    h = hashlib.sha256(trace_digest(run.execution).encode())
    h.update(repr(sorted(run.coverage)).encode())
    h.update(repr(sorted(run.fired_bugs)).encode())
    h.update(repr(sorted(run.bug_effect_steps.items())).encode())
    return h.hexdigest()


def bug_set_digests() -> dict:
    """Run digests of CVA6 with V1-V6, per fixture key and coverage model."""
    corpora = dict(zip(BUG_SET_KEYS, (build_corpus(), build_trap_corpus(),
                                      _bug_corner_programs())))
    digests = {}
    for key, programs in corpora.items():
        digests[key] = {}
        for model in COVERAGE_MODELS:
            dut = make_dut("cva6", coverage_model=model)  # default V1-V6
            digests[key][model] = [run_digest(dut.run(p)) for p in programs]
    return digests


def compute_digests() -> dict:
    """Run the full corpus and return all per-program trace digests."""
    corpus = build_corpus()
    golden = GoldenModel()
    digests = {
        "corpus_size": len(corpus),
        "golden": [trace_digest(golden.run(p)) for p in corpus],
        "duts": {},
    }
    for name in DUT_NAMES:
        dut = make_dut(name, bugs=[])
        digests["duts"][name] = [
            trace_digest(dut.run(p).execution) for p in corpus[:DUT_PROGRAMS]
        ]
    buggy = make_dut("rocket")  # default (full) bug set
    digests["rocket_buggy"] = [
        trace_digest(buggy.run(p).execution) for p in corpus[:BUGGY_PROGRAMS]
    ]

    trap_corpus = build_trap_corpus()
    digests["trap_corpus_size"] = len(trap_corpus)
    digests["trap_golden"] = [trace_digest(golden.run(p)) for p in trap_corpus]
    digests["trap_duts"] = {}
    for name in DUT_NAMES:
        dut = make_dut(name, bugs=[])
        digests["trap_duts"][name] = [
            trace_digest(dut.run(p).execution)
            for p in trap_corpus[:TRAP_DUT_PROGRAMS]
        ]
    digests["trap_rocket_buggy"] = [
        trace_digest(buggy.run(p).execution)
        for p in trap_corpus[:TRAP_BUGGY_PROGRAMS]
    ]
    digests.update(bug_set_digests())
    return digests


@pytest.fixture(scope="module")
def fixture_digests():
    if not FIXTURE_PATH.exists():  # pragma: no cover - recording guard
        pytest.skip("hotpath fixtures not recorded; run this module with --record")
    return json.loads(FIXTURE_PATH.read_text())


@pytest.fixture(scope="module")
def current_digests():
    return compute_digests()


def test_corpus_is_representative():
    """The corpus must include illegal words (mutation fallout) and traps."""
    corpus = build_corpus()
    assert len(corpus) >= 200
    assert any(i.is_illegal for p in corpus for i in p.instructions)
    mnemonics = {i.mnemonic for p in corpus for i in p.instructions}
    assert {"ecall", "ebreak", "csrrw"} <= mnemonics


def test_golden_traces_match_fixtures(fixture_digests, current_digests):
    assert current_digests["corpus_size"] == fixture_digests["corpus_size"]
    mismatches = [
        index
        for index, (new, old) in enumerate(
            zip(current_digests["golden"], fixture_digests["golden"]))
        if new != old
    ]
    assert not mismatches, (
        f"golden traces diverged from pre-rewrite fixtures at programs {mismatches[:10]}")


@pytest.mark.parametrize("dut_name", DUT_NAMES)
def test_dut_traces_match_fixtures(fixture_digests, current_digests, dut_name):
    assert current_digests["duts"][dut_name] == fixture_digests["duts"][dut_name], (
        f"{dut_name} DUT traces diverged from pre-rewrite fixtures")


def test_buggy_dut_traces_match_fixtures(fixture_digests, current_digests):
    assert current_digests["rocket_buggy"] == fixture_digests["rocket_buggy"], (
        "bug-injected rocket traces diverged from pre-rewrite fixtures")


# ------------------------------------------------------- trap-heavy extension
def test_trap_corpus_is_representative():
    """Trap corpus must hit several distinct causes and the trap CSRs."""
    corpus = build_trap_corpus()
    golden = GoldenModel()
    causes = set()
    software_csr_writes = set()
    for program in corpus:
        execution = golden.run(program)
        causes.update(r.trap.name for r in execution.trapped_steps())
        software_csr_writes.update(
            r.csr_addr for r in execution.records if r.csr_addr is not None)
    assert len(causes) >= 5, f"only reached causes {sorted(causes)}"
    # Direct software writes to the trap CSRs themselves are exercised too.
    assert {csrdefs.MCAUSE, csrdefs.MEPC, csrdefs.MTVAL} <= software_csr_writes


def test_trap_golden_traces_match_fixtures(fixture_digests, current_digests):
    assert (current_digests["trap_corpus_size"]
            == fixture_digests["trap_corpus_size"])
    mismatches = [
        index
        for index, (new, old) in enumerate(
            zip(current_digests["trap_golden"], fixture_digests["trap_golden"]))
        if new != old
    ]
    assert not mismatches, (
        f"golden trap traces (mcause/mepc/mtval update paths) diverged at "
        f"programs {mismatches[:10]}")


@pytest.mark.parametrize("dut_name", DUT_NAMES)
def test_trap_dut_traces_match_fixtures(fixture_digests, current_digests, dut_name):
    assert (current_digests["trap_duts"][dut_name]
            == fixture_digests["trap_duts"][dut_name]), (
        f"{dut_name} DUT trap traces diverged from recorded fixtures")


def test_trap_buggy_dut_traces_match_fixtures(fixture_digests, current_digests):
    assert (current_digests["trap_rocket_buggy"]
            == fixture_digests["trap_rocket_buggy"]), (
        "bug-injected rocket trap traces diverged from recorded fixtures")


def test_superblocks_off_matches_fixtures(fixture_digests):
    """The unfused per-step loop must reproduce the recorded digests too.

    The other tests in this module run with superblocks on (the default),
    so together they prove superblock-on == superblock-off == pre-rewrite
    semantics over the whole corpus.
    """
    from repro.isa.compiled import set_superblocks_enabled, superblocks_enabled

    corpus = build_corpus()
    golden = GoldenModel()
    was = superblocks_enabled()
    set_superblocks_enabled(False)
    try:
        off_golden = [trace_digest(golden.run(p)) for p in corpus]
        dut = make_dut("rocket", bugs=[])
        off_rocket = [trace_digest(dut.run(p).execution)
                      for p in corpus[:DUT_PROGRAMS]]
    finally:
        set_superblocks_enabled(was)
    assert off_golden == fixture_digests["golden"]
    assert off_rocket == fixture_digests["duts"]["rocket"]


# ------------------------------------------------------ CVA6 bug-set extension
def test_bug_corners_fire_every_cva6_bug():
    dut = make_dut("cva6")
    fired = set()
    for program in _bug_corner_programs():
        fired |= dut.run(program).fired_bugs
    assert fired == {bug.bug_id for bug in dut.bugs}


@pytest.mark.parametrize("coverage_model", COVERAGE_MODELS)
@pytest.mark.parametrize("key", BUG_SET_KEYS)
def test_cva6_bug_set_runs_match_fixtures(fixture_digests, current_digests,
                                          key, coverage_model):
    assert (current_digests[key][coverage_model]
            == fixture_digests[key][coverage_model]), (
        f"cva6 V1-V6 runs ({key}, {coverage_model} coverage) diverged from "
        f"the recorded trace/coverage/bug digests")


def test_superblocks_off_matches_bug_set_fixtures(fixture_digests):
    """The per-step loop reproduces the CVA6 bug-set digests as well."""
    from repro.isa.compiled import set_superblocks_enabled, superblocks_enabled

    was = superblocks_enabled()
    set_superblocks_enabled(False)
    try:
        off = bug_set_digests()
    finally:
        set_superblocks_enabled(was)
    for key in BUG_SET_KEYS:
        assert off[key] == fixture_digests[key], key


def record_hotpath_fixtures() -> None:  # pragma: no cover - manual tool
    FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE_PATH.write_text(json.dumps(compute_digests(), indent=1) + "\n")
    print(f"recorded fixtures for {json.loads(FIXTURE_PATH.read_text())['corpus_size']} "
          f"programs -> {FIXTURE_PATH}")


if __name__ == "__main__":  # pragma: no cover
    import sys

    if "--record" in sys.argv:
        record_hotpath_fixtures()
    else:
        print(__doc__)
