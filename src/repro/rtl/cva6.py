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

from typing import Optional, Sequence, Set, Union

from repro.coverage.bitset import point_mask
from repro.coverage.points import coverage_point
from repro.isa.encoding import InstrClass
from repro.isa import csr as csrdefs
from repro.rtl.bugs import CVA6_BUG_IDS, InjectedBug
from repro.rtl.harness import DutConfig, DutExecutor, DutModel
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

    # ------------------------------------------------------------------- space
    def structural_space(self) -> Set[str]:
        points: Set[str] = set()
        for entry in range(self.scoreboard_entries):
            points.add(coverage_point("cva6", "scoreboard", f"entry{entry}", "issue"))
            points.add(coverage_point("cva6", "scoreboard", f"entry{entry}", "writeback"))
        for port in sorted(set(_ISSUE_PORTS.values())):
            points.add(coverage_point("cva6", "issue", port))
        for port in range(self.commit_ports):
            for cls in InstrClass:
                points.add(coverage_point("cva6", "commit", f"port{port}", cls.value))
        for bucket in range(self.frontend_buckets):
            points.add(coverage_point("cva6", "frontend", f"fetch_bucket{bucket}"))
        # The SIMD FPU: a large family that integer-only fuzzing cannot reach
        # (only the CSR-side dirty-state point is reachable).  This is what
        # keeps CVA6's coverage percentage the lowest of the three cores.
        for op in _FPU_OPERATIONS:
            for fmt in _FPU_FORMATS:
                for lane in range(_FPU_LANES):
                    points.add(coverage_point("cva6", "fpu", op, fmt, f"lane{lane}"))
        points.add(coverage_point("cva6", "fpu", "fs_dirty"))
        return points

    # -------------------------------------------------------------------- emit
    # Table-driven emission (see RocketModel): per-point masks precomputed
    # once per model class and process, emission is table lookups and
    # ``|=`` only.
    def _build_structural_tables(self) -> dict:
        tables = {
            "sb_issue": [point_mask("cva6", "scoreboard", f"entry{e}", "issue")
                         for e in range(self.scoreboard_entries)],
            "sb_writeback": [point_mask("cva6", "scoreboard", f"entry{e}", "writeback")
                             for e in range(self.scoreboard_entries)],
            "frontend": [point_mask("cva6", "frontend", f"fetch_bucket{b}")
                         for b in range(self.frontend_buckets)],
            "issue_port": {cls: point_mask("cva6", "issue", port)
                           for cls, port in _ISSUE_PORTS.items()},
            "commit_port": [{cls: point_mask("cva6", "commit", f"port{port}",
                                    cls.value) for cls in InstrClass}
                            for port in range(self.commit_ports)],
            "fs_dirty": point_mask("cva6", "fpu", "fs_dirty"),
        }
        # Dense-index twins of the enum-keyed tables (InstrClass hashes
        # through Python-level __hash__): the fused block loop indexes
        # flat lists by a cached integer class index instead.
        cls_order = list(InstrClass)
        tables["cls_index"] = {cls: i for i, cls in enumerate(cls_order)}
        tables["issue_port_flat"] = [tables["issue_port"][cls]
                                     for cls in cls_order]
        tables["commit_port_flat"] = [[port_table[cls] for cls in cls_order]
                                      for port_table in tables["commit_port"]]
        return tables

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
        indices = None if block is None else block.model_plans.get(CVA6Model)
        if indices is None:
            cls_index = tables["cls_index"]
            indices = [None if entry[4] is None else cls_index[entry[4]]
                       for entry in plan]
            if block is not None:
                block.model_plans[CVA6Model] = indices
        sb_issue = tables["sb_issue"]
        sb_writeback = tables["sb_writeback"]
        frontend = tables["frontend"]
        issue_port_flat = tables["issue_port_flat"]
        commit_port_flat = tables["commit_port_flat"]
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
                m |= issue_port_flat[cls_idx]
                m |= commit_port_flat[step % port_mod][cls_idx]
                if record.csr_addr == mstatus:
                    m |= fs_dirty
            mask |= m
        return mask
