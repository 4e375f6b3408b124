"""Tests for the differential tester."""

from repro.fuzzing.differential import (
    DifferentialTester,
    Mismatch,
    compare_traces,
)
from repro.isa.exceptions import TrapCause
from repro.rtl.harness import DutRunResult
from repro.sim.trace import CommitRecord, ExecutionResult, HaltReason


def _record(step, **overrides):
    values = dict(step=step, pc=0x4000_0000 + 4 * step, word=0x13,
                  mnemonic="addi", rd=1, rd_value=step, next_pc=0x4000_0000 + 4 * (step + 1))
    values.update(overrides)
    return CommitRecord(**values)


def _result(records):
    return ExecutionResult(records=list(records), halt_reason=HaltReason.PROGRAM_END)


class TestCompareTraces:
    def test_identical_traces_match(self):
        records = [_record(i) for i in range(4)]
        assert compare_traces(_result(records), _result(records)) is None

    def test_rd_value_mismatch_found(self):
        golden = [_record(0), _record(1)]
        dut = [_record(0), _record(1, rd_value=999)]
        mismatch = compare_traces(_result(golden), _result(dut))
        assert mismatch is not None
        assert mismatch.step == 1
        assert mismatch.field_name == "rd_value"
        assert mismatch.golden_value == 1
        assert mismatch.dut_value == 999

    def test_trap_mismatch_found(self):
        golden = [_record(0, trap=TrapCause.ILLEGAL_INSTRUCTION, rd=None, rd_value=None)]
        dut = [_record(0, rd=None, rd_value=None)]
        mismatch = compare_traces(_result(golden), _result(dut))
        assert mismatch.field_name == "trap"

    def test_uncompared_fields_do_not_mismatch(self):
        # V1/V2 decode substitution: the DUT commits the same effects under
        # another word and mnemonic, which the tester does not compare.
        golden = [_record(0), _record(1), _record(2)]
        dut = [_record(0), _record(1, word=0x0200_0033, mnemonic="add"),
               _record(2)]
        assert compare_traces(_result(golden), _result(dut)) is None
        dut[2] = _record(2, rd_value=9)
        mismatch = compare_traces(_result(golden), _result(dut))
        assert (mismatch.step, mismatch.field_name) == (2, "rd_value")

    def test_first_mismatch_reported(self):
        golden = [_record(0), _record(1), _record(2)]
        dut = [_record(0), _record(1, rd_value=7), _record(2, rd_value=9)]
        assert compare_traces(_result(golden), _result(dut)).step == 1

    def test_length_mismatch(self):
        golden = [_record(0), _record(1)]
        dut = [_record(0)]
        mismatch = compare_traces(_result(golden), _result(dut))
        assert mismatch.field_name == "trace_length"
        assert mismatch.step == 1

    def test_describe(self):
        mismatch = Mismatch(step=3, field_name="rd_value", golden_value=1,
                            dut_value=2, pc=0x80)
        text = mismatch.describe()
        assert "step 3" in text and "rd_value" in text


class TestDifferentialTester:
    def _dut_run(self, records, fired=()):
        return DutRunResult(execution=_result(records), coverage=frozenset(),
                            fired_bugs=frozenset(fired),
                            bug_effect_steps={b: 0 for b in fired})

    def test_no_mismatch_no_bugs(self):
        records = [_record(0)]
        report = DifferentialTester().check(_result(records), self._dut_run(records))
        assert not report.found_mismatch
        assert report.detected_bugs == frozenset()

    def test_mismatch_attributed_to_fired_bugs(self):
        golden = [_record(0)]
        dut = [_record(0, rd_value=5)]
        report = DifferentialTester().check(
            _result(golden), self._dut_run(dut, fired={"V6"}))
        assert report.found_mismatch
        assert report.detected_bugs == {"V6"}

    def test_fired_but_no_mismatch_not_detected(self):
        records = [_record(0)]
        report = DifferentialTester().check(
            _result(records), self._dut_run(records, fired={"V7"}))
        assert not report.found_mismatch
        assert report.detected_bugs == frozenset()
