"""Paper-configuration benchmark of the MABFuzz reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py                       # every workload, then its traced split
    python3 perfbench/run.py --workload rocket-v7 --seed 1 --seconds 30 --trace 0

Each repetition of a workload runs in a fresh process, so process caches
start empty as they do for every CLI invocation.  With ``--trace 0`` the
workload repeats for ``--seconds`` seconds (at least twice), each
repetition on trials of its own (``workloads.rep_seed``), and the
end-to-end metrics pool the repetitions or take their median, with
times scaled to a reference host speed (``workloads.Timer``).  With
``--trace 1`` the first repetition's trials run untraced for a third of
that time (at least once), as the baseline of ``trace.overhead_pct``,
then twice with every layer boundary wrapped (see ``tracer.py``), and the
per-layer split is averaged over the two traced runs.

Every repetition's outputs are checked (``workloads.py``), runs of the
same trials must produce the same result digest, and exact work counters
must repeat.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, where ``attempted``
and ``failed`` count trials.  The exit code is nonzero when any check
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".bench_work")
#: default workload seed (``BENCHMARK.json`` passes it in ``command``).
DEFAULT_SEED = 1
#: kill a repetition that runs longer than this, in seconds.
REP_TIMEOUT = 120.0
MIN_REPS = 2
TRACED_REPS = 2

sys.path.insert(0, HERE)
from tracer import CACHE_DEPENDENT_COUNTERS, EXACT_COUNTERS, LAYERS  # noqa: E402
from workloads import SCHEDULE_DEPENDENT, WORKLOADS, rep_seed  # noqa: E402

#: the seven end-to-end figures, in print order, with their units.
SUMMARY = (("tests_per_s", "tests/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
           ("coverage_points", "points"), ("bugs_detected", "count"),
           ("tests_to_detect", "tests"), ("failed_frac", "ratio"))


def _declared() -> Dict[str, List[dict]]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------- repetitions
def _spawn(name: str, seed: int, trace: bool) -> Dict[str, object]:
    """Run one repetition in a fresh process; return its measurements."""
    command = [sys.executable, os.path.join(HERE, "workloads.py"), name,
               str(seed), repr(time.monotonic()), WORK_DIR, "1" if trace else "0"]
    process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        stdout, stderr = process.communicate(timeout=REP_TIMEOUT)
    except subprocess.TimeoutExpired:
        # The repetition may have pool workers: stop its whole group.
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        return {"seed": seed, "error": f"timed out after {REP_TIMEOUT:.0f} s"}
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        tail = stderr.strip().splitlines()[-1:] or ["no output"]
        return {"seed": seed, "error": f"exit code {process.returncode}: {tail[0]}"}
    return dict(json.loads(lines[-1]), seed=seed)


def _repeat(name: str, seed: int, trace: bool, budget: float, at_least: int,
            at_most: Optional[int] = None, same_trials: bool = False) -> List[dict]:
    """Repeat until the next repetition would overrun ``budget`` seconds.

    Repetition ``r`` runs the trials of ``rep_seed(seed, r)``, or those of
    repetition 0 every time with ``same_trials``.
    """
    reps: List[dict] = []
    took: List[float] = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        rep = 0 if same_trials else len(reps)
        reps.append(_spawn(name, rep_seed(seed, rep), trace))
        took.append(time.monotonic() - began)
        if "error" in reps[-1] or len(reps) == at_most:
            return reps
        elapsed = time.monotonic() - start
        if len(reps) >= at_least and elapsed + statistics.median(took) > budget:
            return reps


# ------------------------------------------------------------------- checking
class Verdict:
    """Failed trials and problems found across one invocation's runs."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    @property
    def correct(self) -> bool:
        return not self.problems

    def check(self, name: str, reps: List[dict]) -> Optional[str]:
        """Check every run of ``name``; return the first run's digest, if any."""
        trials = max((rep["trials"] for rep in reps if "trials" in rep), default=1)
        same_trials: Dict[int, List[dict]] = {}
        for index, rep in enumerate(reps):
            self.attempted += rep.get("trials", trials)
            if "error" in rep:
                self.failed += trials
                self.problems.append(f"run {index + 1}: {rep['error']}")
                continue
            self.failed += rep["failed"]
            self.problems += [f"run {index + 1}: {problem}"
                              for problem in rep["problems"]]
            same_trials.setdefault(rep["seed"], []).append(rep)
        for group in same_trials.values():
            digests = [rep["digest"] for rep in group]
            shared = max(set(digests), key=digests.count)
            for rep in group:
                if rep["digest"] != shared:
                    self.failed += rep["trials"] - rep["failed"]
                    self.problems.append(f"seed {rep['seed']}: digest "
                                         f"{rep['digest']} differs from {shared}")
            self._check_counters(name, group)
        return reps[0].get("digest")

    def _check_counters(self, name: str, reps: List[dict]) -> None:
        """Compare the work counters of runs of the same trials."""
        schedule_dependent = name in SCHEDULE_DEPENDENT
        names = list(EXACT_COUNTERS)
        if not schedule_dependent:
            names += CACHE_DEPENDENT_COUNTERS
            first = reps[0]["counters"]
            for rep in reps[1:]:
                if rep["counters"] != first:
                    self.problems.append(f"cache counters differ between runs: "
                                         f"{first} vs {rep['counters']}")
                    break
        traced = [rep["layers"] for rep in reps if "layers" in rep]
        for counter in names:
            values = {layers[counter] for layers in traced}
            if len(values) > 1:
                self.problems.append(f"{counter} differs between traced runs: "
                                     f"{sorted(values)}")
        for layers in traced:
            if layers["other.share"] < -0.01:
                self.problems.append(f"spans cover more than the traced wall: "
                                     f"other.self_s = {layers['other.self_s']:.3f} s")


# ------------------------------------------------------------------ reporting
def _rate(rep: dict) -> float:
    """A run's tests per second, scaled to the reference host speed
    (``workloads.Timer``)."""
    return rep["tests"] / rep["wall_s"] * rep["host"]


def _summary(reps: List[dict], failed_frac: float) -> Dict[str, float]:
    """Throughput pools every run: all tests over all timed phases, each
    scaled to the reference host speed.  Set-up time (scaled alike) and
    memory are medians over the runs.  The quality figures cover the
    first :data:`MIN_REPS` runs, which every run of a seed makes."""
    good = [rep for rep in reps if "error" not in rep]
    quality = [rep["quality"] for rep in good[:MIN_REPS]]
    detect = [entry["tests_to_detect"] for entry in quality
              if entry["tests_to_detect"] is not None]
    return {
        "tests_per_s": (sum(rep["tests"] for rep in good)
                        / sum(rep["wall_s"] / rep["host"] for rep in good)),
        "setup_s": statistics.median(rep["setup_s"] / rep["host"] for rep in good),
        "peak_rss_mb": statistics.median(rep["rss_mb"] for rep in good),
        "coverage_points": sum(entry["coverage_points"] for entry in quality),
        "bugs_detected": sum(entry["bugs_detected"] for entry in quality),
        "tests_to_detect": statistics.fmean(detect) if detect else None,
        "failed_frac": failed_frac,
    }


def _print_summary(name: str, seed: int, reps: List[dict], digest: Optional[str],
                   values: Dict[str, float]) -> None:
    good = [rep for rep in reps if "error" not in rep]
    print(f"== {name} (seed {seed}): {len(reps)} runs, tracing off")
    for metric, unit in SUMMARY:
        value = values[metric]
        shown = "n/a (no injected bugs)" if value is None else f"{value:.6g} {unit}"
        print(f"  {metric:<18} {shown}")
    print(f"  digest             {digest} (first run)")
    print("  per run: tests/s scaled {}; as timed {}; host slowdown {}".format(
        ", ".join(f"{_rate(rep):.0f}" for rep in good),
        ", ".join(f"{rep['tests'] / rep['wall_s']:.0f}" for rep in good),
        ", ".join(f"{rep['host']:.2f}" for rep in good)))


def _split(traced: List[dict], untraced: List[dict]) -> Dict[str, float]:
    """Mean of the traced runs' per-layer metrics, plus the tracing cost."""
    layers = [rep["layers"] for rep in traced]
    # Counts are reported as the first traced run measured them (they
    # repeat exactly, except cache-dependent ones on a pool grid); times
    # and ratios are averaged.
    split = {key: (value if isinstance(value, int)
                   else statistics.fmean(entry[key] for entry in layers))
             for key, value in layers[0].items()}
    traced_wall = statistics.fmean(rep["wall_s"] / rep["host"] for rep in traced)
    untraced_wall = statistics.median(rep["wall_s"] / rep["host"] for rep in untraced)
    split["trace.overhead_pct"] = (traced_wall / untraced_wall - 1.0) * 100.0
    return split


def _print_split(name: str, seed: int, runs: int, split: Dict[str, float]) -> None:
    print(f"== {name} (seed {seed}): per-layer split, mean of {TRACED_REPS} traced "
          f"runs; {runs} untraced runs for the overhead")
    print(f"  {'layer':<22}{'span':<22}{'calls':>9}{'self_s':>10}{'share':>8}")
    total = 0.0
    for span, layer in LAYERS.items():
        calls = split.get("runtime.gc.collections" if span == "runtime.gc"
                          else f"{span}.calls", 0)
        self_s = split[f"{span}.self_s"]
        total += self_s
        print(f"  {layer:<22}{span:<22}{calls:>9.0f}{self_s:>10.3f}"
              f"{100 * split[f'{span}.share']:>7.1f}%")
    other = split["other.self_s"]
    print(f"  {'other.self_s':<44}{'':>9}{other:>10.3f}"
          f"{100 * split['other.share']:>7.1f}%")
    print(f"  layers + other = {total + other:.3f} s = traced wall "
          f"{split['trace.wall_s']:.3f} s (timed phase x processes)")
    print(f"  trace.overhead_pct = {split['trace.overhead_pct']:.1f} %")
    print("  rtl.path: fused {:.3f}, generic {:.3f}, entry {:.3f} of {:.0f} DUT "
          "instructions".format(split["rtl.path.fused_frac"],
                                split["rtl.path.generic_frac"],
                                split["rtl.path.entry_frac"],
                                split["rtl.dut.instret"]))
    exact = ", ".join(f"{key}={split[key]}" for key in EXACT_COUNTERS)
    cached = ", ".join(f"{key}={split[key]}" for key in CACHE_DEPENDENT_COUNTERS)
    print(f"  exact counters: {exact}")
    label = ("schedule-dependent (first traced run)"
             if name in SCHEDULE_DEPENDENT else "exact")
    print(f"  cache-dependent counters, {label}: {cached}")


def _metrics(values: Dict[str, float], declared: List[dict]) -> Dict[str, dict]:
    return {entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
            for entry in declared}


# ----------------------------------------------------------------------- runs
def measure(name: str, seed: int, seconds: float, trace: bool,
            verdict: Verdict) -> Dict[str, float]:
    """Run one workload for ``seconds``; print and return its metrics."""
    if not trace:
        reps = _repeat(name, seed, False, seconds, MIN_REPS)
        attempted, failed = verdict.attempted, verdict.failed
        digest = verdict.check(name, reps)
        if "error" in reps[0]:
            return {}
        values = _summary(reps, (verdict.failed - failed)
                          / max(verdict.attempted - attempted, 1))
        _print_summary(name, seed, reps, digest, values)
        return values
    untraced = _repeat(name, seed, False, seconds / 3, 1, same_trials=True)
    traced = []
    if all("error" not in rep for rep in untraced):
        traced = _repeat(name, seed, True, 0.0, TRACED_REPS, TRACED_REPS,
                         same_trials=True)
    digest = verdict.check(name, untraced + traced)
    if not traced or any("error" in rep for rep in traced):
        return {}
    split = _split(traced, untraced)
    _print_split(name, seed, len(untraced), split)
    print(f"  digest {digest} (all {len(untraced) + len(traced)} runs)")
    return split


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time per workload and tracing mode")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 reports the per-layer split "
                             "instead of the end-to-end metrics (without "
                             "--workload both are reported)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: List[str]) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    declared = _declared()
    verdict = Verdict()
    results: Dict[str, dict] = {}
    if args.workload:
        values = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), verdict)
        wanted = declared["per_layer" if args.trace else "end_to_end"]
        results = _metrics(values, wanted) if values else {}
    else:
        for name in WORKLOADS:
            for trace in (False, True):
                values = measure(name, args.seed, args.seconds, trace, verdict)
                wanted = declared["per_layer" if trace else "end_to_end"]
                if values:
                    results.update({f"{name}/{key}": value for key, value
                                    in _metrics(values, wanted).items()})
    try:
        os.rmdir(WORK_DIR)
    except OSError:
        pass
    for problem in verdict.problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({"correct": verdict.correct and bool(results),
                      "attempted": verdict.attempted, "failed": verdict.failed,
                      "metrics": results}, sort_keys=True))
    return 0 if verdict.correct and results else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
