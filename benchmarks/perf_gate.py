#!/usr/bin/env python
"""Performance gate: this checkout against a base revision, on one machine.

Usage (from the repository root)::

    python benchmarks/perf_gate.py BASE

checks ``BASE`` out into a temporary git worktree and runs each
checkout's own, unchanged ``perfbench/run.py --workload W --seed 1
--seconds 10 --trace 0`` in alternating pairs on every workload in
:data:`WORKLOADS`: pair ``i`` runs the base (the *parent*) first when
``i`` is even and this checkout (the *change*) first when it is odd.
perfbench's child process puts its own checkout's ``src`` first on
``sys.path``, so each side measures its own program.  The gate reads only
the last line of perfbench's standard output, the JSON result object.

The gate fails when any run exits nonzero or does not print
``"correct": true``, or when on any workload the change's median
``tests_per_s`` falls below the parent's median by more than the
distance between the parent's quartiles, or the change's median
``peak_rss_mb`` exceeds the parent's median by more than the bound
``BENCHMARK.json`` gives that metric.  Both sides run on the same host
in the same minutes, so the parent's own spread is the noise the
throughput threshold allows; no figure recorded elsewhere enters the
decision.

Per workload, the report gives each side's ``tests_per_s`` median and
quartiles, the pairs the change won and the verdict, plus the medians of
``setup_s``, ``peak_rss_mb`` and ``coverage_points``.  It goes to
standard output and, when ``$GITHUB_STEP_SUMMARY`` names a file, is
appended there.  The exit code is 0 on a pass, 1 on a failure and 2
when the base cannot be checked out.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: perfbench/README.md's noise table: rocket-v7 and cva6-csr keep their
#: ``tests_per_s`` spread (0.052/0.082 on rocket-v7, 0.076/0.031 on
#: cva6-csr) within a third of BENCHMARK.json's 0.25 bound, and both run
#: in-process, with no pool.  boom-alpha is the serial-engine workload
#: whose process caches hit, so it is the one that sees what they hold.
WORKLOADS = ("rocket-v7", "cva6-csr", "boom-alpha")
#: at least ten pairs, alternating which side runs first.
PAIRS = 10
#: one ``--seconds 10`` invocation takes 9-10 s of wall, so PAIRS x 2
#: sides x 3 workloads took 559 s on a 2-vCPU host, inside the CI job's
#: 20 minutes.
SECONDS = 10
SIDES = ("parent", "change")
#: end-to-end figures reported beside ``tests_per_s``.
INFO = ("setup_s", "peak_rss_mb", "coverage_points")

#: one perfbench invocation: its exit code and its last standard-output
#: line parsed as JSON (``None`` when that line is missing or not JSON).
Run = Tuple[int, Optional[dict]]


def order(pair: int) -> Tuple[str, str]:
    """The sides of pair ``pair`` in the order they run."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def correct(run: Run) -> bool:
    code, result = run
    return code == 0 and result is not None and result.get("correct") is True


def _failure(run: Run) -> str:
    return f"exited {run[0]}" if run[0] != 0 else 'printed no "correct": true'


def metric(run: Run, name: str) -> float:
    return run[1]["metrics"][name]["value"]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) of ``values``."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def bound(name: str) -> float:
    """The bound ``BENCHMARK.json`` gives the end-to-end metric ``name``:
    the fraction by which it may worsen before a change regresses."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        metrics = json.load(handle)["end_to_end"]
    return next(entry["bound"] for entry in metrics if entry["name"] == name)


def decide(workload: str, parent: Sequence[Run], change: Sequence[Run]) -> List[str]:
    """The problems that fail the gate on ``workload``; none is a pass.

    ``parent`` and ``change`` are each side's runs in pair order.
    """
    problems = [
        f"{workload} pair {pair}: the {side} run {_failure(run)}"
        for side, runs in zip(SIDES, (parent, change))
        for pair, run in enumerate(runs)
        if not correct(run)
    ]
    if problems:
        return problems
    q1, median, q3 = quartiles([metric(run, "tests_per_s") for run in parent])
    change_median = statistics.median(metric(run, "tests_per_s") for run in change)
    if change_median < median - (q3 - q1):
        problems.append(
            f"{workload}: the change's median {change_median:.1f} tests/s is below the "
            f"parent's median {median:.1f} by more than its quartile distance {q3 - q1:.1f}"
        )
    rss_bound = bound("peak_rss_mb")
    parent_rss = statistics.median(metric(run, "peak_rss_mb") for run in parent)
    change_rss = statistics.median(metric(run, "peak_rss_mb") for run in change)
    if change_rss > parent_rss * (1 + rss_bound):
        problems.append(
            f"{workload}: the change's median peak_rss_mb {change_rss:.1f} MB exceeds the "
            f"parent's median {parent_rss:.1f} MB by more than {rss_bound:.0%}"
        )
    return problems


def report(workload: str, parent: Sequence[Run], change: Sequence[Run]) -> List[str]:
    """Markdown lines giving ``workload``'s figures and verdict."""
    header = " | ".join(f"{name} median" for name in INFO)
    lines = [
        f"### {workload}",
        "",
        f"| side | tests_per_s median [Q1, Q3] | {header} |",
        "|---|---|" + "---|" * len(INFO),
    ]
    for side, runs in zip(SIDES, (parent, change)):
        good = [run for run in runs if correct(run)]
        if len(good) < 2:
            lines.append(f"| {side} | {len(good)} correct runs |" + " |" * len(INFO))
            continue
        q1, median, q3 = quartiles([metric(run, "tests_per_s") for run in good])
        info = " | ".join(
            f"{statistics.median(metric(run, name) for run in good):g}" for name in INFO
        )
        lines.append(f"| {side} | {median:.1f} [{q1:.1f}, {q3:.1f}] | {info} |")
    won = sum(
        correct(old) and correct(new) and metric(new, "tests_per_s") > metric(old, "tests_per_s")
        for old, new in zip(parent, change)
    )
    problems = decide(workload, parent, change)
    verdict = "FAIL" if problems else "pass"
    lines += ["", f"The change won {won} of {len(change)} pairs: {verdict}."]
    return lines + [f"- {problem}" for problem in problems] + [""]


def run_perfbench(checkout: Path, workload: str) -> Run:
    """Run ``checkout``'s own perfbench once on ``workload``."""
    command = [
        sys.executable,
        str(checkout / "perfbench" / "run.py"),
        "--workload",
        workload,
        "--seed",
        "1",
        "--seconds",
        str(SECONDS),
        "--trace",
        "0",
    ]
    done = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    run = (done.returncode, result if isinstance(result, dict) else None)
    if not correct(run):
        print(done.stdout, end="", flush=True)
    return run


def measure(base: Path) -> Dict[str, Dict[str, List[Run]]]:
    """Each workload's runs per side, in pair order."""
    checkouts = {"parent": base, "change": ROOT}
    runs: Dict[str, Dict[str, List[Run]]] = {}
    for workload in WORKLOADS:
        runs[workload] = {side: [] for side in SIDES}
        for pair in range(PAIRS):
            for side in order(pair):
                run = run_perfbench(checkouts[side], workload)
                runs[workload][side].append(run)
                rate = f"{metric(run, 'tests_per_s'):.1f} tests/s" if correct(run) else "failed"
                print(f"{workload} pair {pair} {side}: {rate}", flush=True)
    return runs


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="the revision to compare this checkout against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="perf-gate-") as scratch:
        base = Path(scratch) / "base"
        add = ["git", "worktree", "add", "--detach", str(base), args.base]
        if subprocess.run(add, cwd=ROOT).returncode != 0:
            print(f"error: cannot check out {args.base!r}", file=sys.stderr)
            return 2
        try:
            runs = measure(base)
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(base)], cwd=ROOT)
    lines = [f"## perfbench A/B: {args.base} (parent) against this checkout (change)", ""]
    for workload, sides in runs.items():
        lines += report(workload, sides["parent"], sides["change"])
    text = "\n".join(lines)
    print(text)
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a", encoding="utf-8") as handle:
            handle.write(text + "\n")
    failed = any(decide(workload, **sides) for workload, sides in runs.items())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
