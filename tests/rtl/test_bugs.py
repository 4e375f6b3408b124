"""Directed tests for the injected vulnerabilities V1-V7.

Each test builds a minimal program that deterministically exercises one
bug's trigger condition and checks that (a) the DUT diverges from the golden
model, and (b) the divergence is attributed to the right bug id.  A matching
negative test checks the bug does *not* fire without its trigger.  Every
program runs twice, on the fused superblock loop and on the per-step path,
and the two runs must agree exactly.
"""

import random

import pytest

from repro.fuzzing.differential import DifferentialTester
from repro.isa import csr as csrdefs
from repro.isa.assembler import encode_instruction
from repro.isa.compiled import set_superblocks_enabled, superblocks_enabled
from repro.isa.decoder import decode_word
from repro.isa.encoding import OPCODE_OP, SPECS
from repro.isa.exceptions import TrapCause
from repro.isa.instruction import Instruction
from repro.isa.program import TestProgram
from repro.rtl.bugs import (
    BUGS_BY_ID,
    CVA6_BUG_IDS,
    ROCKET_BUG_IDS,
    InjectedBug,
    make_bug,
    make_bugs,
)
from repro.rtl.cva6 import CVA6Model
from repro.rtl.rocket import RocketModel
from repro.sim.golden import GoldenModel
from repro.sim.memory import Memory
from repro.sim.state import ArchState

DATA_UPPER = 0x40004  # lui immediate for the data region base


def _program(*instructions):
    return TestProgram(instructions=tuple(instructions))


def _run_fused_and_per_step(dut, program):
    """Run ``program`` on the fused loop and per-step; assert they agree."""
    was = superblocks_enabled()
    try:
        set_superblocks_enabled(True)
        fused = dut.run(program)
        set_superblocks_enabled(False)
        per_step = dut.run(program)
    finally:
        set_superblocks_enabled(was)
    assert fused.execution.records == per_step.execution.records
    assert fused.execution.halt_reason == per_step.execution.halt_reason
    assert fused.execution.final_registers == per_step.execution.final_registers
    assert fused.execution.final_csrs == per_step.execution.final_csrs
    assert fused.coverage == per_step.coverage
    assert fused.fired_bugs == per_step.fired_bugs
    assert fused.bug_effect_steps == per_step.bug_effect_steps
    return fused


def _detect(dut, program):
    golden = GoldenModel().run(program)
    dut_run = _run_fused_and_per_step(dut, program)
    return DifferentialTester().check(golden, dut_run), dut_run


class TestBugRegistry:
    def test_all_seven_bugs_known(self):
        assert set(BUGS_BY_ID) == {"V1", "V2", "V3", "V4", "V5", "V6", "V7"}

    def test_processor_attribution(self):
        assert set(CVA6_BUG_IDS) == {"V1", "V2", "V3", "V4", "V5", "V6"}
        assert ROCKET_BUG_IDS == ("V7",)
        for bug_id in CVA6_BUG_IDS:
            assert BUGS_BY_ID[bug_id]().processor == "cva6"
        assert BUGS_BY_ID["V7"]().processor == "rocket"

    def test_cwe_numbers_match_table1(self):
        expected = {"V1": 440, "V2": 1242, "V3": 1202, "V4": 1202,
                    "V5": 1252, "V6": 1281, "V7": 1201}
        for bug_id, cwe in expected.items():
            assert BUGS_BY_ID[bug_id]().cwe == cwe

    def test_make_bug(self):
        assert make_bug("v3").bug_id == "V3"
        bug = make_bug("V5")
        assert make_bug(bug) is bug
        with pytest.raises(KeyError):
            make_bug("V99")
        assert [b.bug_id for b in make_bugs(["V1", "V2"])] == ["V1", "V2"]

    def test_default_bug_sets_on_models(self):
        assert {b.bug_id for b in CVA6Model().bugs} == set(CVA6_BUG_IDS)
        assert {b.bug_id for b in RocketModel().bugs} == {"V7"}


def _trigger_probe_words():
    """Encodings of every mnemonic, seeded random words, and every funct7
    of opcode OP with funct3 0 (V2's reserved-encoding neighbourhood)."""
    rng = random.Random(20261017)
    words = [encode_instruction(Instruction(mnemonic)) for mnemonic in SPECS]
    words += [rng.getrandbits(32) for _ in range(4000)]
    words += [(funct7 << 25) | (rng.getrandbits(5) << 20)  # rs2
              | (rng.getrandbits(5) << 15) | (rng.getrandbits(5) << 7)  # rs1, rd
              | OPCODE_OP for funct7 in range(128)]
    return words


class TestTriggerDeclarations:
    """``triggers_on`` must cover every entry a decode/retirement hook acts on.

    The fused superblock loop skips ``on_decode`` and
    ``should_count_retirement`` on entries no bug declares, so a bug that
    forgets a declaration would silently diverge from the per-step path.
    """

    @pytest.mark.parametrize("bug_id", sorted(BUGS_BY_ID))
    def test_hooks_only_act_where_declared(self, bug_id):
        bug = make_bug(bug_id)
        dut = CVA6Model(bugs=[bug])
        executor = dut._make_executor(ArchState(), Memory(dut.layout))
        # The most permissive run state: a store on this very step keeps
        # V1's store-buffer window open.
        executor.last_store_step = executor.current_step
        undeclared = []
        for word in _trigger_probe_words():
            instr = decode_word(word)
            acts = (bug.on_decode(executor, instr, word) is not None
                    or not bug.should_count_retirement(executor, instr))
            if acts and not bug.triggers_on(instr, word):
                undeclared.append(hex(word))
        assert not undeclared, (
            f"{bug_id} acts on undeclared words {undeclared[:5]}")

    def test_declarations(self):
        fence_i = Instruction("fence.i")
        fence_i_word = encode_instruction(fence_i)
        assert not InjectedBug.triggers_on(fence_i, fence_i_word)
        assert BUGS_BY_ID["V1"].triggers_on(fence_i, fence_i_word)
        ebreak = Instruction("ebreak")
        assert BUGS_BY_ID["V7"].triggers_on(ebreak, encode_instruction(ebreak))
        word = TestV2IllegalExecuted._BROKEN_WORD
        assert BUGS_BY_ID["V2"].triggers_on(decode_word(word), word)
        for bug_id in ("V3", "V4", "V5", "V6"):
            assert BUGS_BY_ID[bug_id].triggers_on is InjectedBug.triggers_on


#: executor attributes whose values depend on how far back a run looks.
_HISTORY_READS = frozenset({"last_store_step", "last_trap_step", "current_step"})


class TestHistoryWindows:
    """A bug that looks back at the run's history must declare how far.

    The DUT's loop-replay snapshot keeps the distances to the last store
    and trap only up to one past the largest ``history_window`` its bugs
    declare (and drops them when none does), so an undeclared reader would
    make two snapshots compare equal although the bug behaves differently.
    """

    def test_history_readers_declare_a_window(self):
        import ast
        import inspect

        from repro.rtl import bugs

        tree = ast.parse(inspect.getsource(bugs))
        readers = {
            node.name: sorted({attribute.attr for attribute in ast.walk(node)
                               if isinstance(attribute, ast.Attribute)
                               and attribute.attr in _HISTORY_READS})
            for node in tree.body if isinstance(node, ast.ClassDef)}
        undeclared = {name: reads for name, reads in readers.items()
                      if reads and getattr(bugs, name).history_window < 1}
        assert not undeclared, (
            f"bugs read the run history without a history_window: {undeclared}")
        # The scan is not vacuous: V1 and V3 read the history.
        assert {"FenceIDecodeBug", "ExceptionPropagationBug"} <= {
            name for name, reads in readers.items() if reads}

    def test_declared_windows(self):
        assert InjectedBug.history_window == 0
        windows = {bug_id: cls.history_window for bug_id, cls in BUGS_BY_ID.items()}
        assert windows == {"V1": 2, "V2": 0, "V3": 2, "V4": 0, "V5": 0,
                           "V6": 0, "V7": 0}


class TestV1FenceIDecode:
    def _trigger(self):
        return _program(
            Instruction("lui", rd=10, imm=DATA_UPPER),
            Instruction("addi", rd=5, rs1=0, imm=1),
            Instruction("sd", rs1=10, rs2=5, imm=0),   # store: buffer draining
            Instruction("fence.i"),                    # broken decode path
            Instruction("ecall"),
        )

    def test_detected(self):
        report, dut_run = _detect(CVA6Model(bugs=["V1"]), self._trigger())
        assert report.found_mismatch
        assert report.detected_bugs == {"V1"}
        assert dut_run.bug_effect_steps["V1"] == 3

    def test_not_triggered_without_recent_store(self):
        program = _program(
            Instruction("lui", rd=10, imm=DATA_UPPER),
            Instruction("fence.i"),
            Instruction("ecall"),
        )
        report, _ = _detect(CVA6Model(bugs=["V1"]), program)
        assert not report.found_mismatch


class TestV2IllegalExecuted:
    #: opcode OP, funct3 0, funct7 0x04 (reserved), rd=5, rs1=6, rs2=7.
    _BROKEN_WORD = (0x04 << 25) | (7 << 20) | (6 << 15) | (0 << 12) | (5 << 7) | 0x33

    def test_broken_word_is_actually_illegal(self):
        from repro.isa.decoder import decode_word

        assert decode_word(self._BROKEN_WORD).is_illegal

    def test_detected(self):
        program = _program(
            Instruction("addi", rd=6, rs1=0, imm=11),
            Instruction("addi", rd=7, rs1=0, imm=31),
            Instruction.illegal(self._BROKEN_WORD),
            Instruction("ecall"),
        )
        report, dut_run = _detect(CVA6Model(bugs=["V2"]), program)
        assert report.found_mismatch
        assert report.detected_bugs == {"V2"}
        # The DUT executed the illegal word as ADD: x5 = 11 + 31.
        assert dut_run.execution.records[2].rd_value == 42

    def test_legal_funct7_not_affected(self):
        program = _program(Instruction("add", rd=5, rs1=6, rs2=7),
                           Instruction("ecall"))
        report, _ = _detect(CVA6Model(bugs=["V2"]), program)
        assert not report.found_mismatch


class TestV3ExceptionPropagation:
    def test_detected(self):
        program = _program(
            Instruction("ld", rd=5, rs1=0, imm=0),    # access fault at address 0
            Instruction.illegal(0x0000007F),           # illegal right after
            Instruction("ecall"),
        )
        report, dut_run = _detect(CVA6Model(bugs=["V3"]), program)
        assert report.found_mismatch
        assert report.detected_bugs == {"V3"}
        # The DUT reports the stale (load-access-fault) cause for the illegal.
        assert dut_run.execution.records[1].trap is TrapCause.LOAD_ACCESS_FAULT

    def test_not_triggered_when_far_apart(self):
        filler = [Instruction("addi", rd=6, rs1=6, imm=1)] * 4
        program = _program(
            Instruction("ld", rd=5, rs1=0, imm=0),
            *filler,
            Instruction.illegal(0x0000007F),
            Instruction("ecall"),
        )
        report, _ = _detect(CVA6Model(bugs=["V3"]), program)
        assert not report.found_mismatch


class TestV4CacheCoherency:
    def test_detected(self):
        program = _program(
            Instruction("lui", rd=10, imm=DATA_UPPER),
            Instruction("addi", rd=5, rs1=0, imm=77),
            Instruction("sd", rs1=10, rs2=5, imm=0),          # dirty line, non-zero
            Instruction("amoadd.d", rd=6, rs1=10, rs2=0),     # atomic reads stale 0
            Instruction("ecall"),
        )
        report, dut_run = _detect(CVA6Model(bugs=["V4"]), program)
        assert report.found_mismatch
        assert report.detected_bugs == {"V4"}
        assert dut_run.execution.records[3].rd_value == 0

    def test_not_triggered_without_dirty_line(self):
        program = _program(
            Instruction("lui", rd=10, imm=DATA_UPPER),
            Instruction("amoadd.d", rd=6, rs1=10, rs2=0),
            Instruction("ecall"),
        )
        report, _ = _detect(CVA6Model(bugs=["V4"]), program)
        assert not report.found_mismatch


class TestV5MissingException:
    def test_detected_for_unmapped_high_address(self):
        program = _program(
            Instruction("addi", rd=5, rs1=0, imm=-1),   # x5 = 0xFFFF...FFFF
            Instruction("andi", rd=5, rs1=5, imm=-8),   # keep it 8-byte aligned
            Instruction("ld", rd=6, rs1=5, imm=0),      # fault silently dropped
            Instruction("ecall"),
        )
        report, dut_run = _detect(CVA6Model(bugs=["V5"]), program)
        assert report.found_mismatch
        assert report.detected_bugs == {"V5"}
        assert dut_run.execution.records[2].trap is None

    def test_low_invalid_address_still_faults(self):
        program = _program(
            Instruction("ld", rd=6, rs1=0, imm=16),     # address 16: still reported
            Instruction("ecall"),
        )
        report, dut_run = _detect(CVA6Model(bugs=["V5"]), program)
        assert not report.found_mismatch
        assert dut_run.execution.records[0].trap is TrapCause.LOAD_ACCESS_FAULT


class TestV6UnimplementedCsr:
    def test_detected_on_read(self):
        program = _program(
            Instruction("csrrs", rd=5, rs1=0, csr=0x7B0),   # dcsr
            Instruction("ecall"),
        )
        report, dut_run = _detect(CVA6Model(bugs=["V6"]), program)
        assert report.found_mismatch
        assert report.detected_bugs == {"V6"}
        record = dut_run.execution.records[0]
        assert record.trap is None
        assert record.rd_value not in (None, 0)

    def test_other_unimplemented_csrs_still_trap(self):
        program = _program(
            Instruction("csrrs", rd=5, rs1=0, csr=0x180),   # satp: not part of V6
            Instruction("ecall"),
        )
        report, _ = _detect(CVA6Model(bugs=["V6"]), program)
        assert not report.found_mismatch


class TestV7EbreakInstret:
    def test_detected_when_instret_read_after_ebreak(self):
        program = _program(
            Instruction("ebreak"),
            Instruction("csrrs", rd=5, rs1=0, csr=csrdefs.MINSTRET),
            Instruction("ecall"),
        )
        report, dut_run = _detect(RocketModel(bugs=["V7"]), program)
        assert report.found_mismatch
        assert report.detected_bugs == {"V7"}
        golden = GoldenModel().run(program)
        golden_read = golden.records[1].rd_value
        dut_read = dut_run.execution.records[1].rd_value
        assert dut_read == golden_read - 1

    def test_silent_without_instret_read(self):
        program = _program(
            Instruction("ebreak"),
            Instruction("addi", rd=5, rs1=0, imm=3),
            Instruction("ecall"),
        )
        report, dut_run = _detect(RocketModel(bugs=["V7"]), program)
        # The defect fired (count skipped) but is architecturally invisible.
        assert "V7" in dut_run.fired_bugs
        assert not report.found_mismatch


class TestBugsOnlyFireOnTheirProcessorDefaults:
    def test_boom_default_has_no_bugs(self):
        from repro.rtl.boom import BoomModel

        assert BoomModel().bugs == []
