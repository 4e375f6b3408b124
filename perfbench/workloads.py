"""The four paper-configuration workloads, built from a seed and run once.

Every workload is a closed loop: a fuzzer makes its next test only after
the previous test's feedback is in, and the pool grid keeps at most two
batches per worker in flight (the backend's window).  The benchmark
builds the specs from its ``--seed``; the program only receives them.

:func:`run_once` runs one repetition in the calling process, which the
benchmark starts fresh for every repetition so process caches start empty,
as they do for every CLI invocation.  Repetition ``r`` of a run with
workload seed ``s`` builds its specs from :func:`rep_seed` ``(s, r)``, so
every repetition runs trials of its own.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional

#: tests per trial, and trials per campaign or grid cell.  The seed
#: changes the work per test (a program that loops until the step limit
#: costs ~20x a typical one), and it is the trial seed more than the
#: trial length that decides it: on a 2-CPU host the tests/s of one BOOM
#: trial spread 0.45 (quartile distance / median) across seeds at 200
#: tests and still 0.35 at 1,000.  So a repetition runs several short
#: trials with their own seeds, 3-5 s of work, and a run pools several
#: repetitions.
ROCKET_TESTS = 300
ROCKET_TRIALS = 5
CVA6_TESTS = 400
CVA6_TRIALS = 3
TABLE1_TESTS = 170
TABLE1_TRIALS = 3
ALPHA_TESTS = 100
ALPHA_TRIALS = 5
ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)
#: iterations of the host-speed probe, and the probe's duration in seconds
#: on the reference host (a 2-vCPU Intel Xeon guest at 2.1 GHz, in its
#: fast phases).  The host's speed changes by up to 1.7x in phases of
#: about a minute; the probe follows them.
PROBE_STEPS = 600_000
PROBE_REF_S = 0.17
#: the shortest stretch of timed work between two probes, in seconds.
MIN_SEGMENT_S = 1.0


@dataclass(frozen=True)
class Workload:
    """How one workload is built and handed to the program.

    Attributes:
        kind: ``"campaign"`` (the trials of one spec, in-process),
            ``"pool"`` or ``"serial"`` (a grid through ``CampaignEngine``).
        specs: builds the campaign specs from the workload seed.
        journal: run the grid with a fresh checkpoint journal.
    """

    kind: str
    specs: Callable[[int], list]
    journal: bool = False


def _rocket_v7(seed: int) -> list:
    from repro.harness.campaign import CampaignSpec

    return [CampaignSpec("rocket", "mabfuzz:ucb", num_tests=ROCKET_TESTS,
                         trials=ROCKET_TRIALS, seed=seed)]


def _cva6_csr(seed: int) -> list:
    from repro.fuzzing.base import FuzzerConfig
    from repro.harness.campaign import CampaignSpec

    return [CampaignSpec("cva6", "mabfuzz:exp3", num_tests=CVA6_TESTS,
                         trials=CVA6_TRIALS, seed=seed, coverage_model="csr",
                         fuzzer_config=FuzzerConfig(scenario="mixed", corpus=True))]


def _table1_grid(seed: int) -> list:
    from repro.harness.campaign import CampaignSpec

    fuzzers = ("thehuzz", "mabfuzz:egreedy", "mabfuzz:ucb", "mabfuzz:exp3")
    return [CampaignSpec(processor, fuzzer, num_tests=TABLE1_TESTS,
                         trials=TABLE1_TRIALS, seed=seed)
            for processor in ("cva6", "rocket") for fuzzer in fuzzers]


def _boom_alpha(seed: int) -> list:
    from repro.core.config import MABFuzzConfig
    from repro.harness.campaign import CampaignSpec

    return [CampaignSpec("boom", "mabfuzz:ucb", num_tests=ALPHA_TESTS,
                         trials=ALPHA_TRIALS, seed=seed,
                         mab_config=replace(MABFuzzConfig(), alpha=alpha))
            for alpha in ALPHAS]


WORKLOADS: Dict[str, Workload] = {
    "rocket-v7": Workload("campaign", _rocket_v7),
    "cva6-csr": Workload("campaign", _cva6_csr),
    "table1-grid": Workload("pool", _table1_grid, journal=True),
    "boom-alpha": Workload("serial", _boom_alpha),
}

#: workloads whose cache counters depend on which worker draws which batch.
SCHEDULE_DEPENDENT = frozenset(name for name, workload in WORKLOADS.items()
                               if workload.kind == "pool")


def pool_width() -> int:
    return len(os.sched_getaffinity(0))


def rep_seed(seed: int, rep: int) -> int:
    """The seed repetition ``rep`` of a run with workload seed ``seed``
    builds its specs from."""
    return seed * 1000 + rep


# ---------------------------------------------------------------------- runs
def probe() -> float:
    """Seconds the host takes now for a fixed pure-Python loop that uses
    nothing of the program (dict stores, integer arithmetic, string
    building, a sort)."""
    start = time.perf_counter()
    table: Dict[int, tuple] = {}
    texts: List[str] = []
    acc = 0
    for step in range(PROBE_STEPS):
        table[step & 4095] = (step, acc)
        acc = (acc * 31 + step) & 0xFFFFFFF
        if step % 7 == 0:
            texts.append(str(acc))
    texts.sort()
    return time.perf_counter() - start


def probe_every_cpu() -> float:
    """The mean of :func:`probe` run on every CPU at once, for a workload
    that keeps them all busy."""
    pipes = []
    for _ in range(pool_width() - 1):
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_end)
            os.write(write_end, repr(probe()).encode("ascii"))
            os._exit(0)
        os.close(write_end)
        pipes.append((pid, read_end))
    seconds = [probe()]
    for pid, read_end in pipes:
        with os.fdopen(read_end, "rb") as reader:
            seconds.append(float(reader.read()))
        os.waitpid(pid, 0)
    return sum(seconds) / len(seconds)


class Timer:
    """The timed phase of one repetition, cut into segments by host-speed
    probes that are not part of it.

    The probe runs when the timer is made, at every :meth:`split` and at
    :meth:`close`, on every CPU for a pool workload.  Each segment is
    scaled by the mean of the probes on either side over
    :data:`PROBE_REF_S`, which is above 1 when the host runs slower than
    the reference.
    """

    def __init__(self, every_cpu: bool = False) -> None:
        self._probe = probe_every_cpu if every_cpu else probe
        self.probes = [self._probe()]
        self.segments: List[float] = []
        self.handoff = self._start = 0.0

    def start(self) -> None:
        self.handoff = self._start = time.monotonic()

    def split(self) -> None:
        """Probe between two units of work, at most once per
        :data:`MIN_SEGMENT_S` of timed work."""
        now = time.monotonic()
        if now - self._start >= MIN_SEGMENT_S:
            self.segments.append(now - self._start)
            self.probes.append(self._probe())
            self._start = time.monotonic()

    def stop(self) -> None:
        self.segments.append(time.monotonic() - self._start)

    def close(self) -> None:
        self.probes.append(self._probe())

    @property
    def wall(self) -> float:
        return sum(self.segments)

    @property
    def scaled(self) -> float:
        """The timed phase as it would have taken on the reference host."""
        return sum(2 * PROBE_REF_S * segment
                   / (self.probes[index] + self.probes[index + 1])
                   for index, segment in enumerate(self.segments))


def _run_campaign(spec, timer: Timer, on_handoff: Callable[[], None],
                  split: bool) -> tuple:
    """Every trial of one campaign, serially in-process through
    ``run_campaign`` as ``run_trials`` runs them, with no exec layer in
    between.  With ``split``, the timer probes between trials."""
    from repro.exec.cache import process_cache_stats
    from repro.harness import campaign

    before = process_cache_stats()
    on_handoff()
    timer.start()
    results = []
    for trial in range(spec.trials):
        if split and trial:
            timer.split()
        results.append(campaign.run_campaign(spec, trial))
    timer.stop()
    after = process_cache_stats()
    cache = {name: after[name] - before[name] for name in after}
    return results, cache, 0


def _run_grid(specs: list, workload: Workload, work_dir: str, timer: Timer,
              on_handoff: Callable[[], None], split: bool) -> tuple:
    """The grid through ``CampaignEngine``.  With ``split``, the timer
    probes as trials complete (never on a pool, whose workers would share
    the CPUs with the probe)."""
    from repro.core.monitor import ProgressMonitor
    from repro.exec.backends import ProcessPoolBackend, SerialBackend
    from repro.exec.engine import CampaignEngine

    class SplittingMonitor(ProgressMonitor):
        def trial_completed(self, label: str = "",
                            metadata: Optional[Dict[str, object]] = None) -> None:
            super().trial_completed(label, metadata)
            timer.split()

    backend = (ProcessPoolBackend(workers=pool_width())
               if workload.kind == "pool" else SerialBackend())
    journal = None
    if workload.journal:
        os.makedirs(work_dir, exist_ok=True)
        journal = os.path.join(work_dir, f"journal-{os.getpid()}.jsonl")
        if os.path.exists(journal):
            os.remove(journal)
    monitor = SplittingMonitor() if split and workload.kind != "pool" else None
    engine = CampaignEngine(backend=backend, checkpoint_path=journal,
                            monitor=monitor)
    try:
        on_handoff()
        timer.start()
        trialsets = engine.run_grid(specs)
        timer.stop()
    finally:
        if journal is not None and os.path.exists(journal):
            os.remove(journal)
    results = [trialset.results[trial] if trial < len(trialset.results) else None
               for trialset in trialsets for trial in range(trialset.spec.trials)]
    quarantined = int(engine.last_run_report.get("quarantined_trials", 0))
    return results, dict(backend.cache_stats), quarantined


def _injected(spec) -> frozenset:
    from repro.api import make_processor

    return frozenset(bug.bug_id for bug in make_processor(spec.processor,
                                                          bugs=spec.bugs).bugs)


def _executed(result) -> int:
    """Tests a trial executed: its coverage curve has one sample per test
    (``num_tests`` only echoes the budget it was asked for)."""
    return len(result.coverage_curve)


def digest(results: list) -> str:
    """Canonical digest: every result field except ``elapsed_seconds``."""
    canonical = [result.canonical_dict() if result is not None else None
                 for result in results]
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def _check(specs: list, injected_bugs: list, results: list,
           quarantined: int) -> tuple:
    """Output checks: returns (failed trial count, problems, quality figures)."""
    problems: List[str] = []
    failed = 0
    coverage = bugs = 0
    detect: List[int] = []
    cells = [(spec, injected, trial)
             for spec, injected in zip(specs, injected_bugs)
             for trial in range(spec.trials)]
    for (spec, injected, trial), result in zip(cells, results):
        label = f"{spec.describe()} trial {trial}"
        bad = []
        if result is None:
            bad.append("missing")
        else:
            if _executed(result) != spec.num_tests:
                bad.append(f"ran {_executed(result)} of {spec.num_tests} tests")
            stray = sorted(set(result.bug_detections) - injected)
            if stray:
                bad.append(f"detected bugs that were not injected: {stray}")
            if not injected and result.mismatching_tests:
                bad.append(f"{result.mismatching_tests} mismatches on a clean DUT")
            coverage += result.coverage_count
            for bug_id in sorted(injected):
                tests = result.detection_tests(bug_id)
                bugs += tests is not None
                detect.append(spec.num_tests if tests is None else tests)
        if bad:
            failed += 1
            problems.append(f"{label}: {'; '.join(bad)}")
    if quarantined:
        problems.append(f"{quarantined} trials quarantined")
    quality = {"coverage_points": coverage, "bugs_detected": bugs,
               "tests_to_detect": sum(detect) / len(detect) if detect else None}
    return failed, problems, quality


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_once(name: str, seed: int, spawned_at: float, work_dir: str,
             trace: bool) -> Dict[str, object]:
    """Run one repetition of workload ``name``; return its measurements.

    ``spawned_at`` is the ``time.monotonic()`` reading the benchmark took
    just before starting this process, so set-up time covers interpreter
    start-up and imports too, but not the timer's first probe.  The
    probes run on the CPU the workload runs on; untraced, they also run
    between trials (:class:`Timer`).  ``host`` is the timed phase over its
    length scaled to the reference host.
    """
    workload = WORKLOADS[name]
    timer = Timer(every_cpu=workload.kind == "pool")
    tracer = None
    if trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    # Spans recorded during set-up are not part of the traced wall.
    on_handoff = tracer.clear if tracer is not None else (lambda: None)
    specs = workload.specs(seed)
    # Building each DUT once for its bug list keeps DUT imports and
    # construction in set-up.
    injected_bugs = [_injected(spec) for spec in specs]
    # The traced wall must hold nothing but the workload.
    split = tracer is None
    if workload.kind == "campaign":
        results, cache, quarantined = _run_campaign(specs[0], timer, on_handoff,
                                                    split)
    else:
        results, cache, quarantined = _run_grid(specs, workload, work_dir, timer,
                                                on_handoff, split)
    # Snapshot before the checks below call into wrapped functions.
    snapshot = tracer.snapshot() if tracer is not None else None
    timer.close()
    failed, problems, quality = _check(specs, injected_bugs, results, quarantined)
    completed = [result for result in results if result is not None]
    counters = dict(cache)
    counters["session_golden_hits"] = sum(
        int(result.metadata.get("golden_cache_hits", 0)) for result in completed)
    counters["session_golden_misses"] = sum(
        int(result.metadata.get("golden_cache_misses", 0)) for result in completed)
    out = {
        "setup_s": timer.handoff - spawned_at - timer.probes[0],
        "wall_s": timer.wall,
        "host": timer.wall / timer.scaled,
        "tests": sum(_executed(result) for result in completed),
        "trials": len(results),
        "failed": failed,
        "problems": problems,
        "digest": digest(results),
        "quality": quality,
        "rss_mb": peak_rss_mb(),
        "counters": counters,
    }
    if snapshot is not None:
        from tracer import layer_metrics

        out["layers"] = layer_metrics(
            snapshot, wall=timer.wall,
            workers=pool_width() if workload.kind == "pool" else 0,
            counters=counters, quality=quality,
            resets=sum(int(result.metadata.get("total_resets", 0))
                       for result in completed),
            failed_frac=failed / max(len(results), 1))
    return out


def main(argv: List[str]) -> int:
    """Child entry: ``workloads.py NAME SEED SPAWNED_AT WORK_DIR TRACE``.

    Prints one JSON line with the repetition's measurements.
    """
    name, seed, spawned_at, work_dir, trace = argv
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    out = run_once(name, int(seed), float(spawned_at), work_dir, trace == "1")
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
