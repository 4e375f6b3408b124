"""Directed tests for the injected vulnerabilities V1-V7.

Each test builds a minimal program that deterministically exercises one
bug's trigger condition and checks that (a) the DUT diverges from the golden
model, and (b) the divergence is attributed to the right bug id.  A matching
negative test checks the bug does *not* fire without its trigger.  Every
directed DUT run must reproduce its run digest (trace, coverage, fired bugs
and first effect steps) frozen in ``hotpath_golden.json`` under
``directed_bugs``, recorded with the fused superblock loop and the since
deleted per-step loop asserted equal.
"""

import json
import random

import pytest

from repro.fuzzing.differential import DifferentialTester
from repro.isa import csr as csrdefs
from repro.isa.assembler import encode_instruction
from repro.isa.compiled import superblocks_for
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
from repro.rtl import harness
from repro.rtl.rocket import RocketModel
from repro.sim.golden import GoldenModel
from repro.sim.memory import Memory
from repro.sim.state import ArchState
from repro.sim.trace import HaltReason
from tests.sim.test_hotpath_equivalence import FIXTURE_PATH, run_digest

DATA_UPPER = 0x40004  # lui immediate for the data region base


def _program(*instructions):
    return TestProgram(instructions=tuple(instructions))


#: frozen run digest per (DUT, bugs, coverage model, program fingerprint).
_FROZEN = json.loads(FIXTURE_PATH.read_text())["directed_bugs"]


def _run_frozen(dut, program):
    """Run ``program`` on ``dut``; the run must match its frozen digest."""
    run = dut.run(program)
    bugs = ",".join(bug.bug_id for bug in dut.bugs) or "-"
    key = f"{dut.name}|{bugs}|{dut.coverage_model}|{program.fingerprint()}"
    assert run_digest(run) == _FROZEN[key], key
    return run


def _detect(dut, program):
    golden = GoldenModel().run(program)
    dut_run = _run_frozen(dut, program)
    report = DifferentialTester().check(golden, dut_run)
    # A run in which no bug fired commits the golden trace, which is why
    # FuzzSession.run_test runs the golden model only where a bug fired.
    assert dut_run.fired_bugs or not report.found_mismatch, report.mismatch
    return report, dut_run


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

    The fused superblock loop applies ``on_decode`` and
    ``should_count_retirement`` only to entries a bug declares, so a bug
    that forgets a declaration would silently never act there.
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


def _self_assignments(tree) -> dict:
    """``{class: [method.attribute, ...]}`` for every ``self.`` attribute a
    method other than ``__init__`` assigns."""
    import ast

    found = {}
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for method in cls.body:
            if not isinstance(method, ast.FunctionDef) or method.name == "__init__":
                continue
            targets = []
            for node in ast.walk(method):
                if isinstance(node, ast.Assign):
                    targets.extend(node.targets)
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets.append(node.target)
            for target in targets:
                for node in ast.walk(target):
                    if (isinstance(node, ast.Attribute)
                            and isinstance(node.value, ast.Name)
                            and node.value.id == "self"):
                        found.setdefault(cls.name, []).append(
                            f"{method.name}.{node.attr}")
    return found


class TestNoHiddenBugState:
    """A bug keeps no per-run state of its own.

    Loop replay copies a verified iteration, bug effects included, so any
    state a hook kept outside the DUT snapshot could differ between that
    iteration and a later one, and a replayed copy would diverge from the
    simulation.  Constructors may set configuration; nothing else may
    assign to ``self``.
    """

    def test_no_bug_assigns_self_outside_init(self):
        import ast
        import inspect

        from repro.rtl import bugs

        tree = ast.parse(inspect.getsource(bugs))
        classes = {node.name for node in tree.body
                   if isinstance(node, ast.ClassDef)
                   and issubclass(getattr(bugs, node.name), InjectedBug)}
        assert {cls.__name__ for cls in BUGS_BY_ID.values()} <= classes
        offenders = {name: attributes
                     for name, attributes in _self_assignments(tree).items()
                     if name in classes}
        assert not offenders, (
            f"injected bugs assign self attributes outside __init__: {offenders}")

    def test_scan_finds_hidden_state(self):
        import ast

        source = (
            "class Counting:\n"
            "    def __init__(self):\n"
            "        self.limit = 3\n"
            "    def reset(self):\n"
            "        self.count = 0\n"
            "    def on_trap(self, executor, trap, instr, pc):\n"
            "        self.count += 1\n"
            "        self.seen, other = trap, pc\n"
            "        return trap\n")
        assert _self_assignments(ast.parse(source)) == {
            "Counting": ["reset.count", "on_trap.count", "on_trap.seen"]}


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


class TestDeclaredBlockLeaders:
    """A block stops before the first entry a bug's ``triggers_on``
    declares, and a block led by one runs that entry alone with
    ``on_decode`` and ``should_count_retirement`` applied."""

    def test_v1_leader_substitution_leaves_shared_plans_alone(self):
        program = _program(
            Instruction("lui", rd=10, imm=DATA_UPPER),
            Instruction("addi", rd=5, rs1=0, imm=1),
            Instruction("sd", rs1=10, rs2=5, imm=0),
            Instruction("fence.i"),                   # 3: declared, leads
            Instruction("addi", rd=6, rs1=0, imm=2),
            Instruction("addi", rd=7, rs1=6, imm=3),
            Instruction("csrrs", rd=8, rs1=0, csr=csrdefs.MINSTRET),
            Instruction("ecall"),
        )
        leader = superblocks_for(program).at(3)
        assert leader.length == 4  # fence.i through the CSR tail
        run = CVA6Model(bugs=["V1"]).run(program)
        golden = GoldenModel().run(program)
        assert DifferentialTester().check(golden, run).detected_bugs == {"V1"}
        assert run.bug_effect_steps == {"V1": 3}
        records = run.execution.records
        assert records[3].mnemonic == "illegal"
        assert records[3].trap is TrapCause.ILLEGAL_INSTRUCTION
        # The rest of the leader's block ran in the following blocks.
        assert [r.mnemonic for r in records[4:]] == ["addi", "addi", "csrrs", "ecall"]
        assert records[5].rd_value == 5
        assert run.execution.halt_reason is HaltReason.ECALL
        # The substituted decode got a plan entry of its own: the per-word
        # plan memo, the block's plan and its structural plans still
        # describe the fence.i the word decodes to.
        word = records[3].word
        assert harness._ENTRY_PLANS[word][1].mnemonic == "fence.i"
        assert leader.dut_plan[0][1].mnemonic == "fence.i"
        assert CVA6Model not in leader.model_plans
        clean = CVA6Model(bugs=[]).run(program)
        assert ([r.arch_key() for r in clean.execution.records]
                == [r.arch_key() for r in golden.records])

    def test_v7_ebreak_tail_runs_alone_and_skips_retirement(self):
        program = _program(
            Instruction("addi", rd=5, rs1=0, imm=1),
            Instruction("ebreak"),                    # 1: SYSTEM tail, declared
            Instruction("addi", rd=6, rs1=0, imm=2),
            Instruction("csrrs", rd=7, rs1=0, csr=csrdefs.MINSTRET),
            Instruction("ecall"),
        )
        head = superblocks_for(program).at(0)
        assert head.length == 2 and head.entries[-1][1].mnemonic == "ebreak"
        run = RocketModel(bugs=["V7"]).run(program)
        golden = GoldenModel().run(program)
        assert DifferentialTester().check(golden, run).detected_bugs == {"V7"}
        assert run.bug_effect_steps == {"V7": 1}
        assert run.execution.records[1].trap is TrapCause.BREAKPOINT
        assert golden.records[3].rd_value == 3
        assert run.execution.records[3].rd_value == 2  # ebreak did not retire
        assert (run.execution.final_csrs[csrdefs.MINSTRET]
                == golden.final_csrs[csrdefs.MINSTRET] - 1)
        assert (run.execution.final_csrs[csrdefs.MCYCLE]
                == golden.final_csrs[csrdefs.MCYCLE])


class TestBugsOnlyFireOnTheirProcessorDefaults:
    def test_boom_default_has_no_bugs(self):
        from repro.rtl.boom import BoomModel

        assert BoomModel().bugs == []
