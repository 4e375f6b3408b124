"""Rocket Core model.

Rocket is an in-order, five-stage RV64 core (Sec. IV-A).  It hosts
vulnerability V7 (EBREAK does not increase the instruction count).  The
structural coverage families model the classic five-stage pipeline:
per-stage activity for every instruction, register-file read/write ports,
bypass paths and the stall/redirect conditions of the control logic.
Most of this structure is reachable by ordinary integer programs, which is
why Rocket sits between CVA6 and BOOM in covered points and percentage.
"""

from __future__ import annotations

from typing import Optional, Sequence, Set, Union

from repro.coverage.bitset import point_mask
from repro.coverage.points import coverage_point
from repro.isa.encoding import SPECS, InstrClass, spec_for
from repro.isa.instruction import Instruction
from repro.rtl.bugs import ROCKET_BUG_IDS, InjectedBug
from repro.rtl.harness import _INSTR_MEMO_MAX, DutConfig, DutExecutor, DutModel
from repro.sim.executor import ExecutorConfig
from repro.sim.trace import CommitRecord

_PIPELINE_STAGES = ("if", "id", "ex", "mem", "wb")
_STALL_KINDS = ("loaduse", "div", "mul", "csr", "fence", "amo")
_REDIRECT_KINDS = ("branch", "jump", "trap")


class RocketModel(DutModel):
    """In-order five-stage Rocket Core model (hosts V7)."""

    default_config = DutConfig(
        name="rocket",
        icache_sets=8,
        dcache_sets=16,
        cache_ways=2,
        bpred_entries=64,
        hazard_window=2,
    )

    def __init__(self, config: Optional[DutConfig] = None,
                 bugs: Union[Sequence[Union[str, InjectedBug]], None] = None,
                 executor_config: Optional[ExecutorConfig] = None,
                 coverage_model: str = "base") -> None:
        if bugs is None:
            bugs = ROCKET_BUG_IDS
        super().__init__(config, bugs, executor_config,
                         coverage_model=coverage_model)

    # ------------------------------------------------------------------- space
    def structural_space(self) -> Set[str]:
        points: Set[str] = set()
        for stage in _PIPELINE_STAGES:
            for mnemonic in SPECS:
                points.add(coverage_point("rocket", "pipe", stage, mnemonic))
            points.add(coverage_point("rocket", "pipe", stage, "bubble"))
        for reg in range(32):
            points.add(coverage_point("rocket", "regfile", "write", f"x{reg}"))
            points.add(coverage_point("rocket", "regfile", "read", f"x{reg}"))
            points.add(coverage_point("rocket", "bypass", "ex_to_id", f"x{reg}"))
            points.add(coverage_point("rocket", "bypass", "mem_to_id", f"x{reg}"))
        for kind in _STALL_KINDS:
            points.add(coverage_point("rocket", "stall", kind))
        for kind in _REDIRECT_KINDS:
            points.add(coverage_point("rocket", "pcgen", "redirect", kind))
        points.add(coverage_point("rocket", "pcgen", "sequential"))
        return points

    # -------------------------------------------------------------------- emit
    # Table-driven emission: every point mask is precomputed once per model
    # class and process (DutModel._structural_tables), so emitting a
    # commit's structural coverage is a handful of table lookups and
    # ``|=`` -- no string building on the hot path.
    def _build_structural_tables(self) -> dict:
        return {
            "illegal": point_mask("rocket", "pipe", "if", "bubble")
            | point_mask("rocket", "pipe", "id", "bubble"),
            "pipe": {
                mnemonic: sum(point_mask("rocket", "pipe", stage, mnemonic)
                              for stage in _PIPELINE_STAGES)
                for mnemonic in SPECS
            },
            "rf_write": [point_mask("rocket", "regfile", "write", f"x{reg}")
                         for reg in range(32)],
            "rf_read": [point_mask("rocket", "regfile", "read", f"x{reg}")
                        for reg in range(32)],
            "bypass_ex": [point_mask("rocket", "bypass", "ex_to_id", f"x{reg}")
                          for reg in range(32)],
            "bypass_mem": [point_mask("rocket", "bypass", "mem_to_id", f"x{reg}")
                           for reg in range(32)],
            "stall": {
                InstrClass.DIV: point_mask("rocket", "stall", "div"),
                InstrClass.MUL: point_mask("rocket", "stall", "mul"),
                InstrClass.CSR: point_mask("rocket", "stall", "csr"),
                InstrClass.FENCE: point_mask("rocket", "stall", "fence"),
                InstrClass.ATOMIC: point_mask("rocket", "stall", "amo"),
            },
            "stall_loaduse": point_mask("rocket", "stall", "loaduse"),
            "redirect_trap": point_mask("rocket", "pcgen", "redirect", "trap"),
            "redirect_jump": point_mask("rocket", "pcgen", "redirect", "jump"),
            "redirect_branch": point_mask("rocket", "pcgen", "redirect", "branch"),
            "sequential": point_mask("rocket", "pcgen", "sequential"),
            "plans": {},  # per-instruction static plans, filled lazily
        }

    @staticmethod
    def _instr_plan(instr: Instruction, tables: dict) -> tuple:
        """Per-instruction static plan: pipeline/regfile-read/stall masks
        and the spec flags, resolved once per decoded instruction."""
        plans = tables["plans"]
        plan = plans.get(instr)
        if plan is None:
            spec = spec_for(instr.mnemonic)
            base = tables["pipe"][instr.mnemonic]
            if spec.reads_rs1:
                base |= tables["rf_read"][instr.rs1]
            if spec.reads_rs2:
                base |= tables["rf_read"][instr.rs2]
            stall = tables["stall"].get(spec.cls)
            if stall is not None:
                base |= stall
            if len(plans) >= _INSTR_MEMO_MAX:
                plans.clear()
            plan = plans[instr] = (
                base, spec.writes_rd,
                instr.rs1 if spec.reads_rs1 else None,
                instr.rs2 if spec.reads_rs2 else None,
                spec.cls,
            )
        return plan

    def structural_mask(self, record: CommitRecord, instr: Instruction,
                        executor: DutExecutor) -> int:
        tables = self._structural_tables()
        if instr.is_illegal:
            return tables["illegal"]

        mask, writes_rd, rs1, rs2, cls = self._instr_plan(instr, tables)

        rd = record.rd
        if writes_rd and rd is not None:
            mask |= tables["rf_write"][rd]

        # The previous commit's state is a plain ``(rd, is_load)`` tuple.
        prev = executor.dut_scratch.get("rocket_prev")
        if prev is not None and prev[0]:
            prev_rd = prev[0]
            if rs1 == prev_rd:
                mask |= tables["bypass_ex"][prev_rd]
                if prev[1]:
                    mask |= tables["stall_loaduse"]
            if rs2 == prev_rd:
                mask |= tables["bypass_mem"][prev_rd]

        if record.trap is not None:
            mask |= tables["redirect_trap"]
        elif cls is InstrClass.JUMP:
            mask |= tables["redirect_jump"]
        elif cls is InstrClass.BRANCH and record.next_pc != record.pc + 4:
            mask |= tables["redirect_branch"]
        else:
            mask |= tables["sequential"]

        executor.dut_scratch["rocket_prev"] = (rd, cls is InstrClass.LOAD)
        return mask

    def structural_block_mask(self, records: list, start: int, plan: tuple,
                              executor: DutExecutor, block=None) -> int:
        """One-call-per-superblock twin of :meth:`structural_mask`.

        Identical emission and scratch-state evolution, with the table and
        previous-commit lookups hoisted out of the per-commit loop.
        Illegal words (``None`` in the per-block plan list) emit only the
        fetch/decode bubbles and leave the previous-commit state alone,
        like the per-commit illegal fast-exit.  The per-entry static plans
        are resolved once per block and cached on ``block.model_plans``
        (masks are stable for the life of the process), replacing an
        instruction-hash memo lookup per commit with a list index.
        """
        tables = self._structural_tables()
        plans = None if block is None else block.model_plans.get(RocketModel)
        if plans is None:
            instr_plan = self._instr_plan
            plans = [None if entry[3] is None else instr_plan(entry[1], tables)
                     for entry in plan]
            if block is not None:
                block.model_plans[RocketModel] = plans
        illegal = tables["illegal"]
        rf_write = tables["rf_write"]
        bypass_ex = tables["bypass_ex"]
        bypass_mem = tables["bypass_mem"]
        stall_loaduse = tables["stall_loaduse"]
        redirect_trap = tables["redirect_trap"]
        redirect_jump = tables["redirect_jump"]
        redirect_branch = tables["redirect_branch"]
        sequential = tables["sequential"]
        scratch = executor.dut_scratch
        prev = scratch.get("rocket_prev")
        jump_cls = InstrClass.JUMP
        branch_cls = InstrClass.BRANCH
        load_cls = InstrClass.LOAD
        mask = 0
        for offset in range(len(records) - start):
            record = records[start + offset]
            iplan = plans[offset]
            if iplan is None:
                mask |= illegal
                continue
            base, writes_rd, rs1, rs2, cls = iplan
            m = base
            rd = record.rd
            if writes_rd and rd is not None:
                m |= rf_write[rd]
            if prev is not None and prev[0]:
                prev_rd = prev[0]
                if rs1 == prev_rd:
                    m |= bypass_ex[prev_rd]
                    if prev[1]:
                        m |= stall_loaduse
                if rs2 == prev_rd:
                    m |= bypass_mem[prev_rd]
            if record.trap is not None:
                m |= redirect_trap
            elif cls is jump_cls:
                m |= redirect_jump
            elif cls is branch_cls and record.next_pc != record.pc + 4:
                m |= redirect_branch
            else:
                m |= sequential
            prev = (rd, cls is load_cls)
            mask |= m
        scratch["rocket_prev"] = prev
        return mask
