"""Trace equivalence of the optimised hot path against pre-rewrite fixtures.

The simulation substrate (decoder tables + decode cache, table-dispatched
executor, bytearray memory) must be *bit-identical* to the original
straight-line implementation: same commit records, same final registers and
CSRs, same halt reasons.  This module pins that property to golden fixtures
recorded from the pre-rewrite implementation (see ``record_hotpath_fixtures``
in this file): a deterministic ~200-program corpus -- random seeds, mutated
programs (including illegal words produced by bit-level mutation) and
hand-built corner cases -- is digested per program and compared digest by
digest.  DUT run digests also cover the coverage set, fired bugs and first
bug-effect steps: they are the reference for the coverage emitters, which
run only inside the fused superblock loop.

To re-record the fixtures (only after intentionally changing architectural
semantics, never to paper over a regression)::

    PYTHONPATH=src:. python tests/sim/test_hotpath_equivalence.py --record
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.fuzzing.mutation import MutationEngine
from repro.isa import csr as csrdefs
from repro.isa.assembler import encode_instruction
from repro.isa.generator import GeneratorConfig, SeedGenerator
from repro.isa.instruction import Instruction
from repro.isa.program import TestProgram
from repro.isa.scenarios import TrapScenarioGenerator
from repro.rtl.registry import make_dut
from repro.sim.golden import GoldenModel
from repro.sim.trace import HaltReason

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

# Coverage extension (recorded before the string-tuple coverage emitters
# were deleted, and cross-checked against them while recording): clean
# CVA6, Rocket and BOOM, and CVA6 and Rocket with their default bug sets,
# under both coverage models, over a small seeded user and trap corpus
# plus every hand-built program in this module.  BOOM's default bug set is
# empty.  Each entry stores the program's fingerprint next to its run
# digest, so a generator change reads as a corpus change rather than a
# coverage change.
COVERAGE_USER_SEED = 20260729
COVERAGE_MUTATION_SEED = 20260730
COVERAGE_TRAP_SEED = 20260731
COVERAGE_USER_SEEDS = 8
COVERAGE_MUTATED_PARENTS = 4
COVERAGE_MUTANTS_PER_PARENT = 2
COVERAGE_TRAP_PROGRAMS = 6
#: build_coverage_corpus() slices: seeded user programs and their mutants,
#: seeded trap scenarios, then the hand-built corner programs.
_USER_END = COVERAGE_USER_SEEDS + COVERAGE_MUTATED_PARENTS * COVERAGE_MUTANTS_PER_PARENT
COVERAGE_USER = slice(0, _USER_END)
COVERAGE_TRAP = slice(_USER_END, _USER_END + COVERAGE_TRAP_PROGRAMS)
COVERAGE_CORNERS = slice(_USER_END + COVERAGE_TRAP_PROGRAMS, None)
#: fixture key -> (DUT name, bugs); ``None`` selects the DUT's default set.
COVERAGE_KEYS = {
    "coverage_cva6": ("cva6", ()),
    "coverage_rocket": ("rocket", ()),
    "coverage_rocket_buggy": ("rocket", None),
    "coverage_boom": ("boom", ()),
    "coverage_cva6_buggy": ("cva6", None),
}
#: DUT -> the key its default bug set must reproduce (BOOM's set is empty).
DEFAULT_BUG_SET_KEYS = {
    "cva6": "coverage_cva6_buggy",
    "rocket": "coverage_rocket_buggy",
    "boom": "coverage_boom",
}

# Loop extension (recorded before the run loop learned to replay verified
# steady-state iterations): hand-built loops plus every program of the
# seeded corpora above that runs to the step limit, through the golden
# model and every DUT, clean and with its default bug set, under both
# coverage models.  The last eight hand-built loops (CSR instructions,
# counter aliases, V2/V4/V6 acting every iteration) were added, and
# recorded, before periods holding a CSR instruction or a bug effect
# replayed.  Entries are ``[fingerprint, digest]`` like the coverage
# keys.  BOOM's default bug set is empty, so ``loop_boom`` pins both of
# its configurations.
LOOP_KEYS = {
    "loop_cva6": ("cva6", ()),
    "loop_cva6_buggy": ("cva6", None),
    "loop_rocket": ("rocket", ()),
    "loop_rocket_buggy": ("rocket", None),
    "loop_boom": ("boom", ()),
}


# Per-step extension (recorded before the per-step execution path was
# deleted, with every run asserted equal on the fused loop and on the
# per-step loop): a seeded corpus drawn the way the coverage property in
# tests/integration/test_property_equivalence.py draws -- a seed program
# with a few illegal words, mutated zero to three times -- through every
# DUT under both coverage models, clean and with its default bug set.
# Entries are ``[fingerprint, digest]`` like the coverage keys; BOOM's
# default bug set is empty, so ``property_boom`` pins both of its
# configurations.  The same recording froze two keys that other modules
# check: ``directed_bugs`` (the directed programs of
# tests/rtl/test_bugs.py) and ``directed_fallbacks`` (the fallback-path
# programs of tests/sim/test_compiled.py); ``--record`` keeps them.
PROPERTY_SEED = 20261018
PROPERTY_PROGRAMS = 80
PROPERTY_KEYS = {
    "property_cva6": ("cva6", ()),
    "property_cva6_buggy": ("cva6", None),
    "property_rocket": ("rocket", ()),
    "property_rocket_buggy": ("rocket", None),
    "property_boom": ("boom", ()),
}


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


#: opcode OP, funct3 0, reserved one-hot funct7 0x04: V2 executes it as
#: "add x5, x6, x7".
V2_WORD = (0x04 << 25) | (7 << 20) | (6 << 15) | (5 << 7) | 0x33


def _bug_corner_programs() -> list:
    """Hand-built programs firing each CVA6 bug, mostly inside superblocks."""
    I = Instruction
    data_upper = 0x40004
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
         I.illegal(V2_WORD),
         I.illegal(0x0000_007F),
         I("add", rd=8, rs1=5, rs2=6),
         I.illegal(V2_WORD),
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
         I.illegal(V2_WORD),
         I("ld", rd=7, rs1=0, imm=0),
         I.illegal(0xFFFF_FFFF),
         I("addi", rd=8, rs1=0, imm=-1),
         I("lw", rd=9, rs1=8, imm=0),
         I("csrrs", rd=11, rs1=0, csr=0x7B1),
         I("ecall")],
    ]
    return [TestProgram(instructions=tuple(body)) for body in programs]


def build_coverage_corpus() -> list:
    """Seeded user programs, their mutants, trap scenarios and corner cases."""
    seeds = SeedGenerator(rng=COVERAGE_USER_SEED).generate_many(
        COVERAGE_USER_SEEDS)
    programs = list(seeds)
    engine = MutationEngine(rng=COVERAGE_MUTATION_SEED)
    for parent in seeds[:COVERAGE_MUTATED_PARENTS]:
        programs.extend(engine.mutate(parent, count=COVERAGE_MUTANTS_PER_PARENT))
    programs.extend(TrapScenarioGenerator(rng=COVERAGE_TRAP_SEED).generate_many(
        COVERAGE_TRAP_PROGRAMS))
    programs.extend(_corner_programs())
    programs.extend(_trap_corner_programs())
    programs.extend(_bug_corner_programs())
    return programs


def _hand_built_loops() -> list:
    """Loops that run to the step limit, each stressing one replay edge."""
    I = Instruction
    data_upper = 0x40004
    # "addi x7, x0, 9", built in x5 by lui + addi and stored over the body.
    patch = encode_instruction(I("addi", rd=7, rs1=0, imm=9))
    patch_upper = (patch + 0x800) >> 12
    programs = [
        # Register-periodic: the whole state repeats after one iteration.
        [I("addi", rd=5, rs1=0, imm=7),
         I("addi", rd=6, rs1=5, imm=3),
         I("xor", rd=7, rs1=6, rs2=5),
         I("mul", rd=8, rs1=7, rs2=6),
         I("beq", rs1=0, rs2=0, imm=-12)],
        # Store then reload constant data: memory settles after one
        # iteration.
        [I("lui", rd=10, imm=data_upper),
         I("addi", rd=5, rs1=0, imm=42),
         I("sd", rs1=10, rs2=5, imm=8),
         I("ld", rd=6, rs1=10, imm=8),
         I("add", rd=7, rs1=6, rs2=5),
         I("jal", rd=0, imm=-12)],
        # A counter: the registers never repeat.
        [I("addi", rd=5, rs1=5, imm=1),
         I("slli", rd=6, rs1=5, imm=2),
         I("jal", rd=0, imm=-8)],
        # The retirement counters read into x0 inside the body.
        [I("addi", rd=5, rs1=0, imm=1),
         I("csrrs", rd=0, rs1=0, csr=csrdefs.MINSTRET),
         I("csrrs", rd=0, rs1=0, csr=csrdefs.MCYCLE),
         I("jal", rd=0, imm=-8)],
        # ... and into registers overwritten before the branch.
        [I("csrrs", rd=6, rs1=0, csr=csrdefs.MINSTRET),
         I("csrrs", rd=7, rs1=0, csr=csrdefs.MCYCLE),
         I("addi", rd=6, rs1=0, imm=0),
         I("addi", rd=7, rs1=0, imm=0),
         I("bne", rs1=5, rs2=0, imm=-16),
         I("jal", rd=0, imm=-20)],
        # A store into the loop's own code: from the first iteration on,
        # the patched word is re-fetched and executes "addi x7, x0, 9".
        [I("auipc", rd=10, imm=0),
         I("lui", rd=5, imm=patch_upper),
         I("addi", rd=5, rs1=5, imm=patch - (patch_upper << 12)),
         I("sw", rs1=10, rs2=5, imm=20),
         I("addi", rd=6, rs1=0, imm=1),
         I("addi", rd=7, rs1=0, imm=3),
         I("jal", rd=0, imm=-12)],
        # A trap in every iteration: ebreak (V7 on Rocket).
        [I("addi", rd=6, rs1=0, imm=1),
         I("ebreak"),
         I("jal", rd=0, imm=-8)],
        # ... an out-of-window load (V5 on CVA6 swallows it).
        [I("addi", rd=5, rs1=0, imm=-1),
         I("andi", rd=5, rs1=5, imm=-8),
         I("ld", rd=6, rs1=5, imm=0),
         I("jal", rd=0, imm=-4)],
        # ... an access fault and an illegal word one commit later (V3).
        [I("lw", rd=3, rs1=0, imm=0),
         I("addi", rd=4, rs1=0, imm=2),
         I.illegal(0xFFFF_FFFF),
         I("jal", rd=0, imm=-12)],
        # fence.i right after a store (V1).
        [I("lui", rd=10, imm=data_upper),
         I("addi", rd=5, rs1=0, imm=9),
         I("sw", rs1=10, rs2=5, imm=4),
         I("fence.i"),
         I("jal", rd=0, imm=-8)],
        # A loop closed by mret through a software-seeded mepc.
        [I("auipc", rd=10, imm=0),
         I("addi", rd=10, rs1=10, imm=12),
         I("csrrw", rd=0, rs1=10, csr=csrdefs.MEPC),
         I("addi", rd=6, rs1=0, imm=3),
         I("mret")],
        # Period 1.
        [I("addi", rd=5, rs1=0, imm=1),
         I("jal", rd=0, imm=0)],
        # Period 7 after a 2-commit prefix: it does not divide the 510
        # remaining commits, so a partial period runs after the replay.
        [I("addi", rd=5, rs1=0, imm=5),
         I("addi", rd=6, rs1=0, imm=-3),
         I("add", rd=7, rs1=5, rs2=6),
         I("sub", rd=8, rs1=5, rs2=6),
         I("and", rd=9, rs1=7, rs2=8),
         I("or", rd=11, rs1=7, rs2=8),
         I("sltu", rd=12, rs1=9, rs2=11),
         I("divu", rd=13, rs1=5, rs2=12),
         I("bne", rs1=5, rs2=0, imm=-24)],
        # A countdown kept in memory: the registers repeat from the first
        # iteration on, but the memory image settles only after three, and
        # the predictor counter of the beq (not taken three times, then
        # taken) only after three more.
        [I("lui", rd=10, imm=data_upper),
         I("addi", rd=5, rs1=0, imm=3),
         I("sd", rs1=10, rs2=5, imm=0),
         I("ld", rd=6, rs1=10, imm=0),
         I("beq", rs1=6, rs2=0, imm=12),
         I("addi", rd=6, rs1=6, imm=-1),
         I("sd", rs1=10, rs2=6, imm=0),
         I("addi", rd=6, rs1=0, imm=0),
         I("jal", rd=0, imm=-20)],
        # A store whose distance to the next fence.i is all that changes:
        # the lr.d reserves the line the sc.d stores to only from the third
        # iteration on, when the address the body keeps in memory has
        # settled.  The sc.d then stores two commits before the fence.i,
        # so V1 fires from the fourth iteration on although the third
        # ended in the same registers, memory, caches and predictor as the
        # second.
        [I("lui", rd=10, imm=data_upper),
         I("addi", rd=7, rs1=10, imm=64),
         I("sd", rs1=10, rs2=7, imm=16),
         I("addi", rd=0, rs1=0, imm=0),
         I("addi", rd=0, rs1=0, imm=0),
         I("fence.i"),
         I("ld", rd=6, rs1=10, imm=16),
         I("sd", rs1=10, rs2=7, imm=16),
         I("lr.d", rd=0, rs1=6),
         I("addi", rd=6, rs1=0, imm=0),
         I("addi", rd=7, rs1=10, imm=0),
         I("sc.d", rd=0, rs1=10, rs2=0),
         I("jal", rd=0, imm=-28)],
        # Only the predictor differs between the second and the third
        # iteration: the beq compares a value the body cycles through
        # memory, so it goes taken, not taken, then taken for good (both
        # ways are three commits long), and predicts correctly for the
        # first time in the fourth iteration.  The commits left after a
        # replay end before the beq.
        [I("lui", rd=10, imm=data_upper),
         I("addi", rd=11, rs1=0, imm=5),
         I("addi", rd=12, rs1=0, imm=5),
         I("addi", rd=7, rs1=0, imm=9),
         I("sd", rs1=10, rs2=11, imm=0),
         I("ld", rd=6, rs1=10, imm=0),
         I("sd", rs1=10, rs2=7, imm=0),
         I("addi", rd=7, rs1=12, imm=0),
         I("beq", rs1=6, rs2=11, imm=12),
         I("addi", rd=0, rs1=0, imm=0),
         I("jal", rd=0, imm=12),
         I("addi", rd=0, rs1=0, imm=0),
         I("addi", rd=0, rs1=0, imm=0),
         I("addi", rd=6, rs1=0, imm=0),
         I("jal", rd=0, imm=-36)],
        # Only the data cache differs between the second and the third
        # iteration: a load through an address the body cycles through
        # memory visits three lines of one set, and hits for the first
        # time in the fourth iteration.
        [I("lui", rd=10, imm=data_upper),
         I("addi", rd=5, rs1=10, imm=64),
         I("sd", rs1=10, rs2=5, imm=0),
         I("lui", rd=7, imm=1),
         I("add", rd=12, rs1=5, rs2=7),
         I("add", rd=12, rs1=12, rs2=7),
         I("srli", rd=7, rs1=7, imm=1),
         I("add", rd=7, rs1=5, rs2=7),
         I("ld", rd=6, rs1=10, imm=0),
         I("ld", rd=0, rs1=6, imm=0),
         I("sd", rs1=10, rs2=7, imm=0),
         I("addi", rd=6, rs1=0, imm=0),
         I("addi", rd=7, rs1=12, imm=0),
         I("jal", rd=0, imm=-20)],
        # A read-modify-write of mscratch: the CSR settles after one
        # iteration.
        [I("csrrs", rd=5, rs1=0, csr=csrdefs.MSCRATCH),
         I("ori", rd=5, rs1=5, imm=0x55),
         I("csrrw", rd=0, rs1=5, csr=csrdefs.MSCRATCH),
         I("jal", rd=0, imm=-12)],
        # csrrwi on mstatus: the old value read back settles after one
        # iteration (a CSR-transition class change under the csr model).
        [I("addi", rd=6, rs1=0, imm=1),
         I("csrrwi", rd=7, imm=8, csr=csrdefs.MSTATUS),
         I("jal", rd=0, imm=-8)],
        # A trap on the unimplemented satp in every iteration.
        [I("addi", rd=5, rs1=0, imm=3),
         I("csrrs", rd=6, rs1=0, csr=0x180),
         I("jal", rd=0, imm=-8)],
        # Reads and writes of the debug CSRs V6 breaks: traps on a correct
        # core, X-values and a swallowed write on CVA6 with V6.
        [I("csrrs", rd=5, rs1=0, csr=0x7B0),
         I("csrrw", rd=6, rs1=5, csr=0x7A0),
         I("addi", rd=7, rs1=0, imm=1),
         I("jal", rd=0, imm=-12)],
        # The counter aliases read into registers overwritten before the
        # jump: the registers repeat, the values read do not.
        [I("csrrs", rd=6, rs1=0, csr=csrdefs.CYCLE),
         I("csrrs", rd=7, rs1=0, csr=csrdefs.TIME),
         I("csrrs", rd=8, rs1=0, csr=csrdefs.INSTRET),
         I("addi", rd=6, rs1=0, imm=0),
         I("addi", rd=7, rs1=0, imm=0),
         I("addi", rd=8, rs1=0, imm=0),
         I("jal", rd=0, imm=-24)],
        # A minstret write: the body bumps the counter it read, then
        # clears the register.
        [I("csrrs", rd=6, rs1=0, csr=csrdefs.MINSTRET),
         I("addi", rd=6, rs1=6, imm=1),
         I("csrrw", rd=0, rs1=6, csr=csrdefs.MINSTRET),
         I("addi", rd=6, rs1=0, imm=0),
         I("jal", rd=0, imm=-16)],
        # V2's reserved-funct7 word in every iteration: an illegal trap on
        # a correct core, "add x5, x6, x7" on CVA6 with V2.
        [I("addi", rd=6, rs1=0, imm=11),
         I("addi", rd=7, rs1=0, imm=31),
         I.illegal(V2_WORD),
         I("jal", rd=0, imm=-12)],
        # An AMO on a line a non-zero store just dirtied (V4 on CVA6 reads
        # zero and writes the zero back).
        [I("lui", rd=10, imm=data_upper),
         I("addi", rd=5, rs1=0, imm=77),
         I("sd", rs1=10, rs2=5, imm=0),
         I("amoadd.d", rd=6, rs1=10, rs2=0),
         I("jal", rd=0, imm=-12)],
    ]
    return [TestProgram(instructions=tuple(body)) for body in programs]


def build_loop_corpus() -> list:
    """The hand-built loops, then the step-limit programs of the seeded
    corpora (first occurrence of each fingerprint, in corpus order)."""
    golden = GoldenModel()
    programs = _hand_built_loops()
    seen = {program.fingerprint() for program in programs}
    for program in build_corpus() + build_trap_corpus() + build_coverage_corpus():
        if (program.fingerprint() not in seen
                and golden.run(program).halt_reason is HaltReason.STEP_LIMIT):
            seen.add(program.fingerprint())
            programs.append(program)
    return programs


def build_property_corpus() -> list:
    """Seeded programs drawn like ``test_coverage_always_within_declared_space``."""
    rng = random.Random(PROPERTY_SEED)
    programs = []
    for _ in range(PROPERTY_PROGRAMS):
        seed, mutations = rng.getrandbits(32), rng.randrange(4)
        program = SeedGenerator(GeneratorConfig(illegal_word_prob=0.05),
                                rng=seed).generate()
        engine = MutationEngine(rng=seed)
        for _ in range(mutations):
            program = engine.mutate_once(program)
        programs.append(program)
    return programs


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
    h.update(repr(sorted(run.coverage_points())).encode())
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


def coverage_entries(dut, corpus: list, label: str) -> list:
    """``[fingerprint, run digest]`` per program of ``corpus`` on ``dut``.

    Every run's coverage must lie inside the DUT's ``coverage_space()``.
    """
    space = dut.coverage_space()
    entries = []
    for program in corpus:
        run = dut.run(program)
        outside = run.coverage_points() - space
        assert not outside, (
            f"{label}: {program.fingerprint()} emitted points outside "
            f"coverage_space(): {sorted(outside)[:5]}")
        entries.append([program.fingerprint(), run_digest(run)])
    return entries


def coverage_digests() -> dict:
    """Coverage entries per coverage key and model (see ``coverage_entries``)."""
    corpus = build_coverage_corpus()
    digests = {}
    for key, (name, bugs) in COVERAGE_KEYS.items():
        digests[key] = {}
        for model in COVERAGE_MODELS:
            dut = make_dut(name, bugs=bugs, coverage_model=model)
            digests[key][model] = coverage_entries(dut, corpus, f"{key}/{model}")
    return digests


def loop_digests() -> dict:
    """``loop_golden`` and the ``LOOP_KEYS`` entries over the loop corpus."""
    corpus = build_loop_corpus()
    golden = GoldenModel()
    digests = {"loop_golden": [[program.fingerprint(),
                                trace_digest(golden.run(program))]
                               for program in corpus]}
    for key, (name, bugs) in LOOP_KEYS.items():
        digests[key] = {}
        for model in COVERAGE_MODELS:
            dut = make_dut(name, bugs=bugs, coverage_model=model)
            digests[key][model] = coverage_entries(dut, corpus, f"{key}/{model}")
    return digests


def property_digests() -> dict:
    """The ``PROPERTY_KEYS`` entries over the property corpus."""
    corpus = build_property_corpus()
    digests = {}
    for key, (name, bugs) in PROPERTY_KEYS.items():
        digests[key] = {}
        for model in COVERAGE_MODELS:
            dut = make_dut(name, bugs=bugs, coverage_model=model)
            digests[key][model] = coverage_entries(dut, corpus, f"{key}/{model}")
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
    digests.update(coverage_digests())
    digests.update(loop_digests())
    digests.update(property_digests())
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


# ------------------------------------------------------- coverage extension
def _assert_coverage_entries_match(current: list, recorded: list,
                                   label: str) -> None:
    assert [fp for fp, _ in current] == [fp for fp, _ in recorded], (
        f"{label}: the coverage corpus changed (a generator or corner "
        f"program edit), not the coverage")
    changed = [index for index, (new, old) in enumerate(zip(current, recorded))
               if new != old]
    assert not changed, (
        f"{label}: trace/coverage/bug digests diverged from the recorded "
        f"fixtures at programs {changed[:10]}")


def _assert_clean_slice_matches(fixture_digests, current_digests, name,
                                coverage_model, part, label):
    key = f"coverage_{name}"
    _assert_coverage_entries_match(
        current_digests[key][coverage_model][part],
        fixture_digests[key][coverage_model][part],
        f"{key}/{coverage_model} {label}")


@pytest.mark.parametrize("coverage_model", COVERAGE_MODELS)
@pytest.mark.parametrize("name", DUT_NAMES)
def test_user_corpus_coverage_matches_fixtures(fixture_digests, current_digests,
                                               name, coverage_model):
    _assert_clean_slice_matches(fixture_digests, current_digests, name,
                                coverage_model, COVERAGE_USER, "user corpus")


@pytest.mark.parametrize("coverage_model", COVERAGE_MODELS)
@pytest.mark.parametrize("name", DUT_NAMES)
def test_trap_corpus_coverage_matches_fixtures(fixture_digests, current_digests,
                                               name, coverage_model):
    _assert_clean_slice_matches(fixture_digests, current_digests, name,
                                coverage_model, COVERAGE_TRAP, "trap corpus")


@pytest.mark.parametrize("coverage_model", COVERAGE_MODELS)
@pytest.mark.parametrize("name", DUT_NAMES)
def test_corner_coverage_matches_fixtures(fixture_digests, current_digests,
                                          name, coverage_model):
    _assert_clean_slice_matches(fixture_digests, current_digests, name,
                                coverage_model, COVERAGE_CORNERS,
                                "corner programs")


@pytest.mark.parametrize("name", DUT_NAMES)
def test_default_bug_set_coverage_matches_fixtures(fixture_digests, name):
    """Each DUT built with its default bug set reproduces its key under both
    coverage models; BOOM's set is empty, so it must match the clean key."""
    key = DEFAULT_BUG_SET_KEYS[name]
    corpus = build_coverage_corpus()
    for model in COVERAGE_MODELS:
        dut = make_dut(name, coverage_model=model)  # default bug set
        assert bool(dut.bugs) == (COVERAGE_KEYS[key][1] is None), name
        _assert_coverage_entries_match(
            coverage_entries(dut, corpus, f"{name}/{model}"),
            fixture_digests[key][model], f"{name} default bugs/{model}")


# ----------------------------------------------------------- loop extension
def test_loop_corpus_is_representative():
    """Every program loops to the step limit; the seeded corpora add some."""
    corpus = build_loop_corpus()
    golden = GoldenModel()
    assert all(golden.run(p).halt_reason is HaltReason.STEP_LIMIT
               for p in corpus)
    assert len(corpus) > len(_hand_built_loops()) + 10


def test_loop_golden_traces_match_fixtures(fixture_digests):
    golden = GoldenModel()
    _assert_coverage_entries_match(
        [[p.fingerprint(), trace_digest(golden.run(p))]
         for p in build_loop_corpus()],
        fixture_digests["loop_golden"], "loop_golden")


@pytest.mark.parametrize("coverage_model", COVERAGE_MODELS)
@pytest.mark.parametrize("key", sorted(LOOP_KEYS))
def test_loop_runs_match_fixtures(fixture_digests, key, coverage_model):
    name, bugs = LOOP_KEYS[key]
    dut = make_dut(name, bugs=bugs, coverage_model=coverage_model)
    _assert_coverage_entries_match(
        coverage_entries(dut, build_loop_corpus(), f"{key}/{coverage_model}"),
        fixture_digests[key][coverage_model], f"{key}/{coverage_model}")


def test_boom_default_bug_set_matches_loop_fixtures(fixture_digests):
    for model in COVERAGE_MODELS:
        dut = make_dut("boom", coverage_model=model)  # default (empty) set
        assert not dut.bugs
        _assert_coverage_entries_match(
            coverage_entries(dut, build_loop_corpus(), f"boom/{model}"),
            fixture_digests["loop_boom"][model], f"boom default bugs/{model}")


# ---------------------------------------------------------- per-step extension
@pytest.mark.parametrize("coverage_model", COVERAGE_MODELS)
@pytest.mark.parametrize("key", sorted(PROPERTY_KEYS))
def test_property_corpus_matches_fixtures(fixture_digests, current_digests,
                                         key, coverage_model):
    _assert_coverage_entries_match(current_digests[key][coverage_model],
                                   fixture_digests[key][coverage_model],
                                   f"{key}/{coverage_model}")


def test_boom_default_bug_set_matches_property_fixtures(fixture_digests):
    for model in COVERAGE_MODELS:
        dut = make_dut("boom", coverage_model=model)  # default (empty) set
        assert not dut.bugs
        _assert_coverage_entries_match(
            coverage_entries(dut, build_property_corpus(), f"boom/{model}"),
            fixture_digests["property_boom"][model], f"boom default bugs/{model}")


def record_hotpath_fixtures() -> None:  # pragma: no cover - manual tool
    FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
    # Keys this module does not compute (``directed_*``) stay as recorded.
    digests = (json.loads(FIXTURE_PATH.read_text())
               if FIXTURE_PATH.exists() else {})
    digests.update(compute_digests())
    FIXTURE_PATH.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"recorded fixtures for {json.loads(FIXTURE_PATH.read_text())['corpus_size']} "
          f"programs -> {FIXTURE_PATH}")


if __name__ == "__main__":  # pragma: no cover
    import sys

    if "--record" in sys.argv:
        record_hotpath_fixtures()
    else:
        print(__doc__)
