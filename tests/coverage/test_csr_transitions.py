"""Tests of the ProcessorFuzz-style CSR-transition coverage model."""

import pytest

from repro.coverage.bitset import points_of, union
from repro.coverage.csr_transitions import (
    TRACKED_CSRS,
    TRANSITION_MARKER,
    TRANSITION_TABLE,
    CsrTransitionTracker,
    _MSTATUS_RESET,
    is_transition_point,
    transition_point,
)
from repro.isa import csr as csrdefs
from repro.isa.exceptions import TrapCause
from repro.isa.instruction import Instruction
from repro.isa.scenarios import TrapScenarioGenerator
from repro.rtl.registry import make_dut
from repro.sim.golden import GoldenModel
from repro.sim.state import _CSR_RESET_VALUES
from repro.sim.trace import CommitRecord
from tests.conftest import make_program


def _trap_record(cause, pc=0x4000_0000, tval=0):
    return CommitRecord(pc=pc, word=0, mnemonic="illegal",
                        trap=cause, next_pc=pc + 4, trap_tval=tval)


def _csr_write_record(address, value):
    return CommitRecord(pc=0x4000_0000, word=0, mnemonic="csrrw",
                        csr_addr=address, csr_value=value, next_pc=0x4000_0004)


def _observe(tracker, record):
    """The transition points one commit emits, as point names."""
    return points_of(tracker.observe_mask(record))


def _transition_space():
    """Every transition point, as the family's table declares it."""
    return points_of(union(TRANSITION_TABLE))


class TestSpace:
    def test_space_is_ordered_class_pairs(self):
        space = _transition_space()
        for address, (classes, _) in TRACKED_CSRS.items():
            expected = len(classes) * (len(classes) - 1)
            name = csrdefs.csr_name(address)
            owned = {p for p in space if p.startswith(f"csr.{name}.")}
            assert len(owned) == expected

    def test_point_naming_scheme(self):
        point = transition_point(csrdefs.MCAUSE, "breakpoint", "illegal_instruction")
        assert point == "csr.mcause.breakpoint->illegal_instruction"
        assert is_transition_point(point)
        assert not is_transition_point("csr.mcause.read")
        assert not is_transition_point("trap.breakpoint")

    def test_marker_is_unique_to_the_family(self):
        """No other coverage family may ever use the transition marker."""
        dut = make_dut("cva6", bugs=[], coverage_model="base")
        assert not any(TRANSITION_MARKER in p for p in dut.coverage_space())

    def test_mstatus_reset_value_pinned_to_arch_state(self):
        assert _CSR_RESET_VALUES[csrdefs.MSTATUS] == _MSTATUS_RESET


class TestTracker:
    def test_starts_in_reset_classes(self):
        tracker = CsrTransitionTracker()
        assert tracker.current_class(csrdefs.MSTATUS) == "reset"
        assert tracker.current_class(csrdefs.MEPC) == "zero"
        assert (tracker.current_class(csrdefs.MCAUSE)
                == "instruction_address_misaligned")

    def test_trap_commit_moves_the_three_trap_csrs(self):
        tracker = CsrTransitionTracker()
        points = _observe(tracker, _trap_record(
            TrapCause.BREAKPOINT, pc=0x4000_0000, tval=0x4000_0000))
        assert set(points) == {
            "csr.mcause.instruction_address_misaligned->breakpoint",
            "csr.mepc.zero->code",
            "csr.mtval.zero->code",
        }

    def test_same_class_produces_no_transition(self):
        tracker = CsrTransitionTracker()
        first = _observe(tracker, _trap_record(TrapCause.BREAKPOINT,
                                               pc=0x4000_0000, tval=0))
        assert any("mcause" in p for p in first)
        again = _observe(tracker, _trap_record(TrapCause.BREAKPOINT,
                                               pc=0x4000_0004, tval=0))
        assert not any("mcause" in p for p in again)  # still breakpoint class

    def test_explicit_csr_write_moves_the_written_csr(self):
        tracker = CsrTransitionTracker()
        points = _observe(tracker, _csr_write_record(csrdefs.MSCRATCH, 7))
        assert points == {"csr.mscratch.zero->nonzero"}
        back = _observe(tracker, _csr_write_record(csrdefs.MSCRATCH, 0))
        assert back == {"csr.mscratch.nonzero->zero"}

    def test_untracked_csr_writes_are_ignored(self):
        tracker = CsrTransitionTracker()
        assert _observe(tracker, _csr_write_record(csrdefs.MCOUNTEREN, 5)) == frozenset()

    def test_software_written_junk_cause_classifies_as_other(self):
        tracker = CsrTransitionTracker()
        points = _observe(tracker, _csr_write_record(csrdefs.MCAUSE, 0xDEAD))
        assert points == {"csr.mcause.instruction_address_misaligned->other"}

    def test_class_outside_the_enumeration_raises(self, monkeypatch):
        """A class the enumeration lacks names no declared point, so the
        tracker raises instead of emitting outside the space."""
        monkeypatch.setitem(TRACKED_CSRS, csrdefs.MSCRATCH, (
            ("zero", "nonzero"),
            lambda value, layout: "bogus" if value else "zero"))
        tracker = CsrTransitionTracker()
        with pytest.raises(KeyError):
            tracker.observe_mask(_csr_write_record(csrdefs.MSCRATCH, 7))

    def test_emitted_points_stay_inside_the_space(self):
        space = _transition_space()
        tracker = CsrTransitionTracker()
        records = [
            _trap_record(cause, pc=pc, tval=tval)
            for cause in TrapCause
            for pc, tval in ((0, 0), (0x4000_0000, 0x4000_4000),
                             (0xFFFF_0000, 0xFFFF_FFFF))
        ] + [
            _csr_write_record(address, value)
            for address in TRACKED_CSRS
            for value in (0, 1, 0x1800, 0x4000_0008, 0x4000_4008, 2**63)
        ]
        emitted = set()
        for record in records:
            emitted.update(_observe(tracker, record))
        assert emitted
        assert emitted <= space


class TestGoldenTraceCollection:
    @pytest.mark.parametrize("dut_name", ["cva6", "rocket", "boom"])
    def test_clean_dut_emits_exactly_the_golden_trace_transitions(self, dut_name):
        """RTL-hook emission == golden-record derivation, per DUT, property-style."""
        golden = GoldenModel()
        dut = make_dut(dut_name, bugs=[], coverage_model="csr")
        generator = TrapScenarioGenerator(rng=99)
        for program in generator.generate_many(12):
            tracker = CsrTransitionTracker()
            expected = set()
            for record in golden.run(program).records:
                expected |= _observe(tracker, record)
            run = dut.run(program)
            emitted = {p for p in run.coverage_points() if is_transition_point(p)}
            assert emitted == expected


class TestDutIntegration:
    def test_csr_model_space_is_superset_of_base(self):
        base = make_dut("rocket", bugs=[], coverage_model="base")
        csr = make_dut("rocket", bugs=[], coverage_model="csr")
        assert base.coverage_space() < csr.coverage_space()
        assert (csr.coverage_space() - base.coverage_space()
                == _transition_space())

    def test_base_model_emits_no_transition_points(self):
        dut = make_dut("rocket", bugs=[])
        program = make_program([
            Instruction("csrrwi", rd=1, imm=9, csr=csrdefs.MSCRATCH),
            Instruction("ecall"),
        ])
        run = dut.run(program)
        assert not any(is_transition_point(p) for p in run.coverage_points())

    def test_unknown_coverage_model_rejected(self):
        with pytest.raises(ValueError, match="coverage model"):
            make_dut("rocket", bugs=[], coverage_model="bogus")
