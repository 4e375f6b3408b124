"""CVA6 (Ariane) model.

CVA6 is an application-class, Linux-capable RV64 core with a scoreboard-
based issue stage and a custom SIMD floating-point unit (Sec. IV-A of the
paper).  Two properties of the real core matter for the reproduction:

* it hosts vulnerabilities V1-V6, and
* it has the *lowest* branch-coverage percentage of the three evaluation
  targets, largely because sizable parts of the design (most prominently
  the FPU) are hard or impossible to exercise with integer-only fuzzing.

The model therefore includes a large FPU coverage family that integer test
programs cannot reach, alongside reachable scoreboard / issue / commit-port
structure.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.coverage.bitset import mask_of, point_mask
from repro.coverage.points import coverage_point
from repro.isa.encoding import InstrClass
from repro.isa import csr as csrdefs
from repro.rtl.bugs import CVA6_BUG_IDS, InjectedBug
from repro.rtl.harness import CLASS_INDEX, CLASSES, DutConfig, DutExecutor, DutModel
from repro.sim.executor import ExecutorConfig

#: Issue-port assignment per instruction class.
_ISSUE_PORTS = {
    InstrClass.ARITH: "alu",
    InstrClass.LOGIC: "alu",
    InstrClass.SHIFT: "alu",
    InstrClass.COMPARE: "alu",
    InstrClass.MUL: "mult",
    InstrClass.DIV: "mult",
    InstrClass.LOAD: "lsu",
    InstrClass.STORE: "lsu",
    InstrClass.ATOMIC: "lsu",
    InstrClass.BRANCH: "branch",
    InstrClass.JUMP: "branch",
    InstrClass.CSR: "csr",
    InstrClass.SYSTEM: "csr",
    InstrClass.FENCE: "csr",
}

_FPU_OPERATIONS = (
    "fadd", "fsub", "fmul", "fdiv", "fsqrt", "fmadd", "fmsub", "fnmadd",
    "fnmsub", "fsgnj", "fminmax", "fcmp", "fclass", "fcvt_i2f", "fcvt_f2i",
    "fcvt_f2f", "fmv", "dotp", "simd_add", "simd_mul",
)
_FPU_FORMATS = ("fp16", "fp32", "fp64", "vec16x4")
_FPU_LANES = 16


class CVA6Model(DutModel):
    """Application-class CVA6 core model (hosts V1-V6)."""

    default_config = DutConfig(
        name="cva6",
        icache_sets=32,
        dcache_sets=32,
        cache_ways=4,
        bpred_entries=64,
        hazard_window=3,
    )

    #: number of scoreboard entries in the issue stage.
    scoreboard_entries = 8
    #: number of commit ports.
    commit_ports = 2
    #: fetch-address interleaving buckets in the frontend.
    frontend_buckets = 16

    def __init__(self, config: Optional[DutConfig] = None,
                 bugs: Union[Sequence[Union[str, InjectedBug]], None] = None,
                 executor_config: Optional[ExecutorConfig] = None,
                 coverage_model: str = "base") -> None:
        if bugs is None:
            bugs = CVA6_BUG_IDS
        super().__init__(config, bugs, executor_config,
                         coverage_model=coverage_model)

    # ---------------------------------------------------------------- coverage
    # Table-driven emission (see RocketModel): per-point masks precomputed
    # once per model class and process, emission is table lookups and
    # ``|=`` only.  The tables are the family's only declaration.
    def _build_structural_tables(self) -> dict:
        return {
            "sb_issue": [point_mask("cva6", "scoreboard", f"entry{e}", "issue")
                         for e in range(self.scoreboard_entries)],
            "sb_writeback": [point_mask("cva6", "scoreboard", f"entry{e}", "writeback")
                             for e in range(self.scoreboard_entries)],
            "frontend": [point_mask("cva6", "frontend", f"fetch_bucket{b}")
                         for b in range(self.frontend_buckets)],
            # Indexed by CLASS_INDEX, not by the enum (whose hash is
            # Python-level): per class, then per commit port and class.
            "issue_port": [point_mask("cva6", "issue", _ISSUE_PORTS[cls])
                           for cls in CLASSES],
            "commit_port": [[point_mask("cva6", "commit", f"port{port}", cls.value)
                             for cls in CLASSES]
                            for port in range(self.commit_ports)],
            "fs_dirty": point_mask("cva6", "fpu", "fs_dirty"),
            # The SIMD FPU datapath: declared, never emitted.  Integer-only
            # fuzzing cannot reach it (only the CSR-side dirty-state point
            # above is reachable), which keeps CVA6's coverage percentage
            # the lowest of the three cores.
            "fpu_lanes": mask_of(coverage_point("cva6", "fpu", op, fmt, f"lane{lane}")
                                 for op in _FPU_OPERATIONS for fmt in _FPU_FORMATS
                                 for lane in range(_FPU_LANES)),
        }

    def structural_block_mask(self, records: list, start: int, plan: tuple,
                              executor: DutExecutor, block=None) -> int:
        """Scoreboard, frontend, issue-port and commit-port points.

        Per commit, indexed by its step and pc: the scoreboard entry (and
        its writeback when the commit writes ``rd``), the fetch bucket,
        the issue port and commit port of its class, and the FPU
        dirty-state point on an ``mstatus`` write.  The per-entry integer
        class indices (``None`` for illegal words, which emit only the
        scoreboard/frontend masks) are resolved once per block and cached
        on ``block.model_plans``, so the loop indexes flat lists instead
        of hashing enums.
        """
        tables = self._structural_tables()
        indices = None if block is None else block.model_plans.get(type(self))
        if indices is None:
            indices = [None if entry[4] is None else CLASS_INDEX[entry[4]]
                       for entry in plan]
            if block is not None:
                block.model_plans[type(self)] = indices
        sb_issue = tables["sb_issue"]
        sb_writeback = tables["sb_writeback"]
        frontend = tables["frontend"]
        issue_port = tables["issue_port"]
        commit_port = tables["commit_port"]
        fs_dirty = tables["fs_dirty"]
        sb_mod = self.scoreboard_entries
        fe_mod = self.frontend_buckets
        port_mod = self.commit_ports
        mstatus = csrdefs.MSTATUS
        mask = 0
        for offset in range(len(records) - start):
            record = records[start + offset]
            cls_idx = indices[offset]
            step = record.step
            entry = step % sb_mod
            m = sb_issue[entry]
            if record.rd is not None:
                m |= sb_writeback[entry]
            m |= frontend[(record.pc >> 2) % fe_mod]
            if cls_idx is not None:
                m |= issue_port[cls_idx]
                m |= commit_port[step % port_mod][cls_idx]
                if record.csr_addr == mstatus:
                    m |= fs_dirty
            mask |= m
        return mask
