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

from typing import Optional, Sequence, Set, Union

from repro.coverage.bitset import point_mask
from repro.coverage.points import coverage_point
from repro.isa.encoding import SPECS, InstrClass, spec_for
from repro.isa.instruction import Instruction
from repro.rtl.bugs import InjectedBug
from repro.rtl.harness import _INSTR_MEMO_MAX, DutConfig, DutExecutor, DutModel
from repro.sim.executor import ExecutorConfig

_ISSUE_QUEUES = {
    InstrClass.ARITH: "int", InstrClass.LOGIC: "int", InstrClass.SHIFT: "int",
    InstrClass.COMPARE: "int", InstrClass.MUL: "int", InstrClass.DIV: "int",
    InstrClass.BRANCH: "int", InstrClass.JUMP: "int", InstrClass.CSR: "int",
    InstrClass.SYSTEM: "int", InstrClass.FENCE: "mem", InstrClass.LOAD: "mem",
    InstrClass.STORE: "mem", InstrClass.ATOMIC: "mem",
}


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

    # ------------------------------------------------------------------- space
    def structural_space(self) -> Set[str]:
        points: Set[str] = set()
        for entry in range(self.rob_entries):
            points.add(coverage_point("boom", "rob", f"entry{entry}", "alloc"))
            points.add(coverage_point("boom", "rob", f"entry{entry}", "commit"))
            points.add(coverage_point("boom", "rob", f"entry{entry}", "exception"))
        for bucket in range(self.occupancy_buckets):
            points.add(coverage_point("boom", "rob", "occupancy", f"b{bucket}"))
        for queue in ("int", "mem", "fp"):
            for slot in range(self.issue_queue_slots):
                points.add(coverage_point("boom", "iq", queue, f"slot{slot}"))
        for entry in range(self.lsq_entries):
            points.add(coverage_point("boom", "lsq", f"entry{entry}", "load"))
            points.add(coverage_point("boom", "lsq", f"entry{entry}", "store"))
        for preg in range(self.physical_registers):
            points.add(coverage_point("boom", "prf", f"p{preg}"))
        for cls in InstrClass:
            for reg in range(32):
                points.add(coverage_point("boom", "rename", cls.value, f"x{reg}"))
                points.add(coverage_point("boom", "busytable", cls.value, f"rs1_x{reg}"))
                points.add(coverage_point("boom", "busytable", cls.value, f"rs2_x{reg}"))
        for mnemonic, spec in SPECS.items():
            points.add(coverage_point("boom", "uop", mnemonic, _ISSUE_QUEUES[spec.cls]))
            if spec.writes_rd:
                points.add(coverage_point("boom", "wakeup", mnemonic))
        for cls_a in InstrClass:
            for cls_b in InstrClass:
                points.add(coverage_point("boom", "dualissue",
                                          f"{cls_a.value}_{cls_b.value}"))
        for lane in range(self.coreswidth):
            for cls in InstrClass:
                points.add(coverage_point("boom", "commit", f"lane{lane}", cls.value))
        points.add(coverage_point("boom", "flush", "branch_mispredict"))
        points.add(coverage_point("boom", "flush", "exception"))
        return points

    # -------------------------------------------------------------------- emit
    # Table-driven emission (see RocketModel): per-point masks precomputed
    # once per model class and process, emission is table lookups and
    # ``|=`` only.
    def _build_structural_tables(self) -> dict:
        tables = {
            "rob_alloc": [point_mask("boom", "rob", f"entry{e}", "alloc")
                          for e in range(self.rob_entries)],
            "rob_commit": [point_mask("boom", "rob", f"entry{e}", "commit")
                           for e in range(self.rob_entries)],
            "rob_exception": [point_mask("boom", "rob", f"entry{e}", "exception")
                              for e in range(self.rob_entries)],
            "occupancy": [point_mask("boom", "rob", "occupancy", f"b{b}")
                          for b in range(self.occupancy_buckets)],
            "flush_exception": point_mask("boom", "flush", "exception"),
            "flush_mispredict": point_mask("boom", "flush", "branch_mispredict"),
            "uop": {mnemonic: point_mask("boom", "uop", mnemonic,
                                _ISSUE_QUEUES[spec.cls])
                    for mnemonic, spec in SPECS.items()},
            "iq": {queue: [point_mask("boom", "iq", queue, f"slot{slot}")
                           for slot in range(self.issue_queue_slots)]
                   for queue in ("int", "mem", "fp")},
            "rename": {cls: [point_mask("boom", "rename", cls.value, f"x{reg}")
                             for reg in range(32)]
                       for cls in InstrClass},
            "wakeup": {mnemonic: point_mask("boom", "wakeup", mnemonic)
                       for mnemonic, spec in SPECS.items()
                       if spec.writes_rd},
            "prf": [point_mask("boom", "prf", f"p{preg}")
                    for preg in range(self.physical_registers)],
            "busy_rs1": {cls: [point_mask("boom", "busytable", cls.value,
                                 f"rs1_x{reg}") for reg in range(32)]
                         for cls in InstrClass},
            "busy_rs2": {cls: [point_mask("boom", "busytable", cls.value,
                                 f"rs2_x{reg}") for reg in range(32)]
                         for cls in InstrClass},
            "lsq_load": [point_mask("boom", "lsq", f"entry{e}", "load")
                         for e in range(self.lsq_entries)],
            "lsq_store": [point_mask("boom", "lsq", f"entry{e}", "store")
                          for e in range(self.lsq_entries)],
            "dualissue": {(a, b): point_mask("boom", "dualissue",
                                    f"{a.value}_{b.value}")
                          for a in InstrClass for b in InstrClass},
            "commit_lane": [{cls: point_mask("boom", "commit", f"lane{lane}",
                                    cls.value) for cls in InstrClass}
                            for lane in range(self.coreswidth)],
            "plans": {},  # per-instruction static plans, filled lazily
        }
        # Dense-index twins of the enum-keyed tables: InstrClass.__hash__
        # is Python-level, so the fused block loop indexes flat lists by
        # a per-plan integer class index instead of hashing enums.
        cls_order = list(InstrClass)
        tables["cls_list"] = cls_order
        tables["cls_index"] = {cls: i for i, cls in enumerate(cls_order)}
        tables["dualissue_flat"] = [tables["dualissue"][a, b]
                                    for a in cls_order for b in cls_order]
        tables["commit_lane_flat"] = [[lane_table[cls] for cls in cls_order]
                                      for lane_table in tables["commit_lane"]]
        # Per-ROB-entry alloc|commit and alloc|exception|flush unions:
        # every commit emits alloc plus exactly one of the other two.
        tables["rob_ok"] = [a | c for a, c in zip(tables["rob_alloc"],
                                                  tables["rob_commit"])]
        tables["rob_trap"] = [a | e | tables["flush_exception"]
                              for a, e in zip(tables["rob_alloc"],
                                              tables["rob_exception"])]
        return tables

    @staticmethod
    def _instr_plan(instr: Instruction, tables: dict) -> tuple:
        """Per-instruction static plan: uop/wakeup/rename/busytable masks
        and the issue-queue slot table, resolved once per instruction."""
        plans = tables["plans"]
        plan = plans.get(instr)
        if plan is None:
            spec = spec_for(instr.mnemonic)
            cls = spec.cls
            static = tables["uop"][instr.mnemonic]
            if spec.writes_rd:
                static |= tables["rename"][cls][instr.rd]
                static |= tables["wakeup"][instr.mnemonic]
            if spec.reads_rs1:
                static |= tables["busy_rs1"][cls][instr.rs1]
            if spec.reads_rs2:
                static |= tables["busy_rs2"][cls][instr.rs2]
            if len(plans) >= _INSTR_MEMO_MAX:
                plans.clear()
            plan = plans[instr] = (
                static, cls, tables["cls_index"][cls],
                tables["iq"][_ISSUE_QUEUES[cls]],
                instr.rd if spec.writes_rd else None,
                cls is InstrClass.LOAD or cls is InstrClass.ATOMIC,
                cls is InstrClass.STORE or cls is InstrClass.ATOMIC,
            )
        return plan

    def structural_block_mask(self, records: list, start: int, plan: tuple,
                              executor: "DutExecutor", block=None) -> int:
        """ROB, issue-queue, rename, register-file, LSQ and lane points.

        Per commit, indexed by its step: the ROB entry (with the
        exception flush on a trap), the occupancy bucket, the uop's issue
        queue slot, physical register and load/store-queue entry, the
        dual-issue pairing with the previous commit's class (carried
        across blocks in ``dut_scratch["boom_prev_cls"]``), the commit
        lane, and a mispredict flush on a taken branch.  Illegal words
        (``None`` in the per-block plan list) emit only the ROB /
        occupancy / exception masks and leave ``boom_prev_cls`` alone.
        The per-entry static plans are resolved once per block and cached
        on ``block.model_plans`` (masks are stable for the life of the
        process), replacing an instruction-hash memo lookup per commit
        with a list index.
        """
        tables = self._structural_tables()
        iplans = None if block is None else block.model_plans.get(BoomModel)
        if iplans is None:
            instr_plan = self._instr_plan
            iplans = [None if entry[3] is None else instr_plan(entry[1], tables)
                      for entry in plan]
            if block is not None:
                block.model_plans[BoomModel] = iplans
        rob_ok = tables["rob_ok"]
        rob_trap = tables["rob_trap"]
        occupancy = tables["occupancy"]
        flush_mispredict = tables["flush_mispredict"]
        prf = tables["prf"]
        lsq_load_t = tables["lsq_load"]
        lsq_store_t = tables["lsq_store"]
        dualissue_flat = tables["dualissue_flat"]
        commit_lane_flat = tables["commit_lane_flat"]
        cls_list = tables["cls_list"]
        ncls = len(cls_list)
        rob_entries = self.rob_entries
        occ_top = self.occupancy_buckets - 1
        iq_mod = self.issue_queue_slots
        phys = self.physical_registers
        lsq_mod = self.lsq_entries
        lanes = self.coreswidth
        branch_cls = InstrClass.BRANCH
        scratch = executor.dut_scratch
        prev_cls = scratch.get("boom_prev_cls")
        prev_idx = (tables["cls_index"][prev_cls]
                    if isinstance(prev_cls, InstrClass) else -1)
        mask = 0
        for offset in range(len(records) - start):
            record = records[start + offset]
            step = record.step
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
                m |= dualissue_flat[prev_idx * ncls + cls_idx]
            prev_idx = cls_idx
            m |= commit_lane_flat[step % lanes][cls_idx]
            if (cls is branch_cls and trap is None
                    and record.next_pc != record.pc + 4):
                m |= flush_mispredict
            mask |= m
        scratch["boom_prev_cls"] = (cls_list[prev_idx] if prev_idx >= 0
                                    else prev_cls)
        return mask
