"""BOOM (Berkeley Out-of-Order Machine) model.

BOOM is a superscalar, out-of-order RV64 core (Sec. IV-A).  Its RTL is by
far the largest of the three evaluation targets, and -- as the paper notes
-- TheHuzz already reaches >95% of its branch points, leaving little room
for improvement.  The model reproduces that regime with a large coverage
space dominated by *easily reachable* out-of-order bookkeeping structure
(re-order buffer entries, rename map updates per destination register and
mnemonic, physical-register allocation, issue-queue slots, load/store-queue
entries and dual-issue class pairings).
"""

from __future__ import annotations

from math import lcm
from typing import Dict, Optional, Sequence, Union

from repro.coverage.bitset import point_mask
from repro.isa.encoding import SPECS, InstrClass, spec_for
from repro.isa.instruction import Instruction
from repro.rtl.bugs import InjectedBug
from repro.rtl.harness import (_INSTR_MEMO_MAX, CLASS_INDEX, CLASSES, DutConfig,
                               DutExecutor, DutModel)
from repro.sim.executor import ExecutorConfig

_ISSUE_QUEUES = {
    InstrClass.ARITH: "int", InstrClass.LOGIC: "int", InstrClass.SHIFT: "int",
    InstrClass.COMPARE: "int", InstrClass.MUL: "int", InstrClass.DIV: "int",
    InstrClass.BRANCH: "int", InstrClass.JUMP: "int", InstrClass.CSR: "int",
    InstrClass.SYSTEM: "int", InstrClass.FENCE: "mem", InstrClass.LOAD: "mem",
    InstrClass.STORE: "mem", InstrClass.ATOMIC: "mem",
}

#: model class -> its per-instruction static structural plans (see
#: BoomModel._instr_plan), kept per class like its tables.
_PLANS: Dict[type, Dict[Instruction, tuple]] = {}


class BoomModel(DutModel):
    """Superscalar out-of-order BOOM model (no injected bugs by default)."""

    default_config = DutConfig(
        name="boom",
        icache_sets=8,
        dcache_sets=16,
        cache_ways=4,
        bpred_entries=32,
        hazard_window=4,
    )

    rob_entries = 32
    occupancy_buckets = 8
    issue_queue_slots = 16
    lsq_entries = 16
    physical_registers = 96
    coreswidth = 2

    def __init__(self, config: Optional[DutConfig] = None,
                 bugs: Union[Sequence[Union[str, InjectedBug]], None] = None,
                 executor_config: Optional[ExecutorConfig] = None,
                 coverage_model: str = "base") -> None:
        if bugs is None:
            bugs = ()
        super().__init__(config, bugs, executor_config,
                         coverage_model=coverage_model)

    @property
    def step_cycle(self) -> int:
        """The lcm of the step moduli; occupancy saturates well inside it."""
        return lcm(self.rob_entries, self.issue_queue_slots,
                   self.physical_registers, self.lsq_entries, self.coreswidth)

    # ---------------------------------------------------------------- coverage
    # Table-driven emission (see RocketModel): per-point masks precomputed
    # once per model class and process, emission is table lookups and
    # ``|=`` only.  The tables are the family's only declaration; lists
    # over instruction classes are indexed by CLASS_INDEX, not by the enum
    # (whose hash is Python-level).
    def _build_structural_tables(self) -> dict:
        rob_alloc = [point_mask("boom", "rob", f"entry{e}", "alloc")
                     for e in range(self.rob_entries)]
        flush_exception = point_mask("boom", "flush", "exception")
        return {
            # Every commit allocates its ROB entry and then either commits
            # it or raises an exception that flushes the pipeline.
            "rob_ok": [alloc | point_mask("boom", "rob", f"entry{e}", "commit")
                       for e, alloc in enumerate(rob_alloc)],
            "rob_trap": [alloc | flush_exception
                         | point_mask("boom", "rob", f"entry{e}", "exception")
                         for e, alloc in enumerate(rob_alloc)],
            "occupancy": [point_mask("boom", "rob", "occupancy", f"b{b}")
                          for b in range(self.occupancy_buckets)],
            "flush_mispredict": point_mask("boom", "flush", "branch_mispredict"),
            "uop": {mnemonic: point_mask("boom", "uop", mnemonic,
                                         _ISSUE_QUEUES[spec.cls])
                    for mnemonic, spec in SPECS.items()},
            # The ``fp`` queue is declared, never emitted: no integer
            # instruction class issues to it.
            "iq": {queue: [point_mask("boom", "iq", queue, f"slot{slot}")
                           for slot in range(self.issue_queue_slots)]
                   for queue in ("int", "mem", "fp")},
            "rename": [[point_mask("boom", "rename", cls.value, f"x{reg}")
                        for reg in range(32)] for cls in CLASSES],
            "wakeup": {mnemonic: point_mask("boom", "wakeup", mnemonic)
                       for mnemonic, spec in SPECS.items()
                       if spec.writes_rd},
            "prf": [point_mask("boom", "prf", f"p{preg}")
                    for preg in range(self.physical_registers)],
            "busy_rs1": [[point_mask("boom", "busytable", cls.value, f"rs1_x{reg}")
                          for reg in range(32)] for cls in CLASSES],
            "busy_rs2": [[point_mask("boom", "busytable", cls.value, f"rs2_x{reg}")
                          for reg in range(32)] for cls in CLASSES],
            "lsq_load": [point_mask("boom", "lsq", f"entry{e}", "load")
                         for e in range(self.lsq_entries)],
            "lsq_store": [point_mask("boom", "lsq", f"entry{e}", "store")
                          for e in range(self.lsq_entries)],
            # The pairing of the previous commit's class with this one's,
            # at ``previous * len(CLASSES) + this``.
            "dualissue": [point_mask("boom", "dualissue", f"{a.value}_{b.value}")
                          for a in CLASSES for b in CLASSES],
            "commit_lane": [[point_mask("boom", "commit", f"lane{lane}", cls.value)
                             for cls in CLASSES]
                            for lane in range(self.coreswidth)],
        }

    @staticmethod
    def _instr_plan(instr: Instruction, tables: dict, plans: dict) -> tuple:
        """Per-instruction static plan: uop/wakeup/rename/busytable masks
        and the issue-queue slot table, resolved once per instruction."""
        plan = plans.get(instr)
        if plan is None:
            spec = spec_for(instr.mnemonic)
            cls = spec.cls
            cls_idx = CLASS_INDEX[cls]
            static = tables["uop"][instr.mnemonic]
            if spec.writes_rd:
                static |= tables["rename"][cls_idx][instr.rd]
                static |= tables["wakeup"][instr.mnemonic]
            if spec.reads_rs1:
                static |= tables["busy_rs1"][cls_idx][instr.rs1]
            if spec.reads_rs2:
                static |= tables["busy_rs2"][cls_idx][instr.rs2]
            if len(plans) >= _INSTR_MEMO_MAX:
                plans.clear()
            plan = plans[instr] = (
                static, cls, cls_idx,
                tables["iq"][_ISSUE_QUEUES[cls]],
                instr.rd if spec.writes_rd else None,
                cls is InstrClass.LOAD or cls is InstrClass.ATOMIC,
                cls is InstrClass.STORE or cls is InstrClass.ATOMIC,
            )
        return plan

    def structural_block_mask(self, records: list, start: int, plan: tuple,
                              executor: "DutExecutor", block=None,
                              copies: int = 1) -> int:
        """ROB, issue-queue, rename, register-file, LSQ and lane points.

        Per commit, indexed by its step (its index in ``records``): the
        ROB entry (with the exception flush on a trap), the occupancy
        bucket, the uop's issue queue slot, physical register and
        load/store-queue entry, the dual-issue pairing with the previous
        commit's class (carried across blocks in
        ``dut_scratch["boom_prev_cls"]``), the commit lane, and a
        mispredict flush on a taken branch.  Illegal words (``None`` in
        the per-block plan list) emit only the ROB / occupancy /
        exception masks and leave ``boom_prev_cls`` alone.
        The per-entry static plans are resolved once per block and cached
        on ``block.model_plans`` (masks are stable for the life of the
        process), replacing an instruction-hash memo lookup per commit
        with a list index.
        """
        tables = self._structural_tables()
        model = type(self)
        iplans = None if block is None else block.model_plans.get(model)
        if iplans is None:
            instr_plan = self._instr_plan
            memo = _PLANS.setdefault(model, {})
            iplans = [None if entry[3] is None else instr_plan(entry[1], tables, memo)
                      for entry in plan]
            if block is not None:
                block.model_plans[model] = iplans
        if copies > 1:
            iplans = iplans * copies
        rob_ok = tables["rob_ok"]
        rob_trap = tables["rob_trap"]
        occupancy = tables["occupancy"]
        flush_mispredict = tables["flush_mispredict"]
        prf = tables["prf"]
        lsq_load_t = tables["lsq_load"]
        lsq_store_t = tables["lsq_store"]
        dualissue = tables["dualissue"]
        commit_lane = tables["commit_lane"]
        ncls = len(CLASSES)
        rob_entries = self.rob_entries
        occ_top = self.occupancy_buckets - 1
        iq_mod = self.issue_queue_slots
        phys = self.physical_registers
        lsq_mod = self.lsq_entries
        lanes = self.coreswidth
        branch_cls = InstrClass.BRANCH
        scratch = executor.dut_scratch
        prev_cls = scratch.get("boom_prev_cls")
        prev_idx = (CLASS_INDEX[prev_cls]
                    if isinstance(prev_cls, InstrClass) else -1)
        mask = 0
        for offset in range(min(len(records) - start, len(iplans))):
            step = start + offset
            record = records[step]
            trap = record.trap
            m = (rob_trap if trap is not None else rob_ok)[step % rob_entries]
            m |= occupancy[step if step < occ_top else occ_top]
            iplan = iplans[offset]
            if iplan is None:
                mask |= m
                continue
            static, cls, cls_idx, iq_slots, rd, lsq_load, lsq_store = iplan
            m |= static
            m |= iq_slots[step % iq_mod]
            if rd is not None:
                m |= prf[(step * 7 + rd) % phys]
            if lsq_load:
                m |= lsq_load_t[step % lsq_mod]
            if lsq_store:
                m |= lsq_store_t[step % lsq_mod]
            if prev_idx >= 0:
                m |= dualissue[prev_idx * ncls + cls_idx]
            prev_idx = cls_idx
            m |= commit_lane[step % lanes][cls_idx]
            if (cls is branch_cls and trap is None
                    and record.next_pc != record.pc + 4):
                m |= flush_mispredict
            mask |= m
        scratch["boom_prev_cls"] = (CLASSES[prev_idx] if prev_idx >= 0
                                    else prev_cls)
        return mask
