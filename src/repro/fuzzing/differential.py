"""Differential testing of the DUT against the golden reference model.

Following TheHuzz (Sec. II-A), the tester compares the per-instruction
architectural commit traces of the DUT and the golden model.  The first
divergence flags a potential vulnerability; the DUT run's bug-effect
bookkeeping is then used to attribute the mismatch to the injected
vulnerabilities (the reproduction's stand-in for the manual root-causing
the paper's authors performed on the real RTL).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional

from repro.rtl.harness import DutRunResult
from repro.sim.trace import CommitRecord, ExecutionResult


@dataclass(frozen=True)
class Mismatch:
    """The first architectural divergence between DUT and golden traces."""

    step: int
    field_name: str
    golden_value: object
    dut_value: object
    pc: Optional[int] = None

    def describe(self) -> str:
        return (f"step {self.step} (pc=0x{self.pc or 0:x}): {self.field_name} "
                f"golden={self.golden_value!r} dut={self.dut_value!r}")


@dataclass(frozen=True)
class DifferentialReport:
    """Result of differentially testing one program."""

    mismatch: Optional[Mismatch]
    detected_bugs: FrozenSet[str] = frozenset()

    @property
    def found_mismatch(self) -> bool:
        return self.mismatch is not None


_COMPARED_FIELDS = (
    "pc", "rd", "rd_value", "trap", "mem_addr", "mem_value",
    "csr_addr", "csr_value", "next_pc",
)


def _compare_records(step: int, golden: CommitRecord,
                     dut: CommitRecord) -> Optional[Mismatch]:
    for field_name in _COMPARED_FIELDS:
        golden_value = getattr(golden, field_name)
        dut_value = getattr(dut, field_name)
        if golden_value != dut_value:
            return Mismatch(step=step, field_name=field_name,
                            golden_value=golden_value, dut_value=dut_value,
                            pc=golden.pc)
    return None


def compare_traces(golden: ExecutionResult,
                   dut: ExecutionResult) -> Optional[Mismatch]:
    """Return the first mismatch between two commit traces (or ``None``)."""
    # CommitRecord equality covers every compared field (and more), so equal
    # traces have no mismatch; only unequal ones are walked field by field.
    if golden.records == dut.records:
        return None
    for step, (golden_record, dut_record) in enumerate(
            zip(golden.records, dut.records)):
        mismatch = _compare_records(step, golden_record, dut_record)
        if mismatch is not None:
            return mismatch
    if len(golden.records) != len(dut.records):
        step = min(len(golden.records), len(dut.records))
        return Mismatch(step=step, field_name="trace_length",
                        golden_value=len(golden.records),
                        dut_value=len(dut.records))
    return None


class DifferentialTester:
    """Compares DUT runs against golden runs and attributes mismatches to bugs."""

    def check(self, golden: ExecutionResult, dut_run: DutRunResult) -> DifferentialReport:
        """Differential-test one program run."""
        mismatch = compare_traces(golden, dut_run.execution)
        if mismatch is None:
            return DifferentialReport(mismatch=None)
        # Only injected defects can make the DUT diverge from the golden
        # model (they share functional semantics), so every bug that altered
        # behaviour in this run is credited with the detection.
        return DifferentialReport(mismatch=mismatch,
                                  detected_bugs=dut_run.fired_bugs)
