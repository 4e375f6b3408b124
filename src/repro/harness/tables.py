"""Text renderers for the paper's tables.

The renderers produce plain-text tables whose rows mirror the paper's
Table I and the Fig. 4 summary, so a benchmark run prints directly
comparable output.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.coverage.bitset import union
from repro.coverage.csr_transitions import TRANSITION_TABLE
from repro.harness.campaign import TrialSet
from repro.harness.experiments import Table1Result, TrapCoverageStudy


def _format_speedup(value: Optional[float]) -> str:
    if value is None:
        return "n/a"
    return f"{value:.2f}x"


def _format_tests(value: Optional[float]) -> str:
    if value is None:
        return "not detected"
    return f"{value:.1f}"


def _render_rows(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    rows = [list(header)] + [list(r) for r in rows]
    widths = [max(len(row[col]) for row in rows) for col in range(len(header))]
    lines = []
    for index, row in enumerate(rows):
        line = "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        lines.append(line.rstrip())
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def render_table1(result: Table1Result) -> str:
    """Render the Table I reproduction (detection speedups vs TheHuzz)."""
    algorithms = list(result.config.algorithms)
    header = ["Bug", "CWE", "Processor", "TheHuzz #tests"] + [
        f"{algo} speedup" for algo in algorithms
    ]
    rows: List[List[str]] = []
    lower_bound_seen = False
    for row in result.rows:
        cells = [row.bug_id, str(row.cwe), row.processor,
                 _format_tests(row.baseline_tests)]
        for algo in algorithms:
            text = _format_speedup(row.speedups.get(algo))
            if row.baseline_tests is None and text != "n/a":
                # The baseline never detected this bug: the speedup was
                # computed against the censored campaign length, so it is
                # only a lower bound.
                text = ">=" + text
                lower_bound_seen = True
            cells.append(text)
        rows.append(cells)
    title = ("Table I reproduction: vulnerability detection speedup "
             "compared to TheHuzz")
    rendered = f"{title}\n{_render_rows(header, rows)}"
    if lower_bound_seen:
        rendered += ("\n('>=' marks lower bounds: TheHuzz never detected the bug "
                     "within its campaign, the MAB fuzzer did.)")
    return rendered


def render_figure4_table(summary: Dict[str, Dict[str, Dict[str, float]]]) -> str:
    """Render the Fig. 4 summary as a table (speedup and increment per core)."""
    header = ["Processor", "Algorithm", "Coverage speedup", "Coverage increment",
              "MABFuzz points", "TheHuzz points"]
    rows: List[List[str]] = []
    for processor, per_algo in summary.items():
        for algo, metrics in per_algo.items():
            rows.append([
                processor,
                algo,
                f"{metrics['speedup']:.2f}x",
                f"{metrics['increment_percent']:+.2f}%",
                f"{metrics['final_coverage']:.0f}",
                f"{metrics['baseline_coverage']:.0f}",
            ])
    title = "Fig. 4 reproduction: coverage speedup and increment vs TheHuzz"
    return f"{title}\n{_render_rows(header, rows)}"


def render_trap_coverage_table(study: TrapCoverageStudy) -> str:
    """Render the trap/CSR-transition coverage experiment.

    One row per (processor, seed scenario): overall coverage, how many of
    the enumerable CSR-transition points the campaigns reached, and how
    many ``trap.*`` points fired -- the evidence that trap arms buy
    coverage user-level arms cannot reach.
    """
    space_size = union(TRANSITION_TABLE).bit_count()
    header = ["Processor", "Scenario", "Coverage %", "CSR transitions",
              "Transition %", "Trap points"]
    rows: List[List[str]] = []
    for processor in study.config.processors:
        for scenario in study.scenarios:
            trialset = study.get(processor, scenario)
            transitions = study.mean_metadata(processor, scenario,
                                              "csr_transition_points")
            trap_points = study.mean_metadata(processor, scenario, "trap_points")
            rows.append([
                processor,
                scenario,
                f"{trialset.mean_coverage_percent():.1f}%",
                f"{transitions:.1f}/{space_size}",
                f"{100.0 * transitions / space_size:.1f}%",
                f"{trap_points:.1f}",
            ])
    title = (f"Trap/CSR scenario study: CSR-transition coverage by seed "
             f"scenario ({study.fuzzer})")
    return f"{title}\n{_render_rows(header, rows)}"


def render_ablation_table(results: Dict[object, TrialSet],
                          parameter_name: str,
                          bug_id: Optional[str] = None) -> str:
    """Render an ablation sweep (coverage and optional detection per setting)."""
    header = [parameter_name, "Mean coverage", "Coverage %"]
    if bug_id is not None:
        header.append(f"{bug_id} mean tests")
    rows: List[List[str]] = []
    for value, trialset in results.items():
        row = [
            str(value),
            f"{trialset.mean_coverage_count():.0f}",
            f"{trialset.mean_coverage_percent():.1f}%",
        ]
        if bug_id is not None:
            detections = [t for t in trialset.detection_tests(bug_id) if t is not None]
            row.append(f"{sum(detections) / len(detections):.1f}" if detections
                       else "not detected")
        rows.append(row)
    return _render_rows(header, rows)
