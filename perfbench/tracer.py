"""Span tracer for the traced benchmark run.

Nothing in ``src/`` is instrumented.  :func:`install` replaces the public
functions that bound each layer with timing wrappers before the workload
starts; untraced repetitions never import this module.  A span's *self*
time is its duration minus the spans nested in it, so the self times of
all spans, plus the time no span covers, add up to the wall time.

Each garbage-collector pause is counted once, under ``runtime.gc``, and
subtracted from whichever span it interrupted.

For a process-pool grid the wrappers and the GC callback are installed
before the pool forks, so every worker inherits them.  Each worker sends
its totals back inside the payload of every batch it runs (key
:data:`TRACE_KEY`); the dispatcher strips that key before the engine
sees the payload and adds the totals to :attr:`Tracer.workers`.
"""

from __future__ import annotations

import functools
import gc
import os
import time
from typing import Callable, Dict, List

#: payload key carrying a worker's span totals back to the dispatcher.
TRACE_KEY = "_perfbench_trace"

_clock = time.perf_counter


class Tracer:
    """In-memory span and counter totals of one process.

    Attributes:
        spans: span name -> ``[calls, self_s, total_s]``.
        counts: exact work counters (retired instructions and the like).
        samples: duration in seconds of every ``fuzz.test`` span.
        gc_outside_s: GC pauses that interrupted no span.
        workers: the same totals summed over every pool worker.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: Dict[str, List[float]] = {}
        self.counts: Dict[str, int] = {}
        self.samples: List[float] = []
        self.gc_outside_s = 0.0
        self._stack: List[list] = []
        self._gc_start = 0.0
        self.workers: Dict[str, object] = _empty_totals()

    # ----------------------------------------------------------------- totals
    def totals(self) -> Dict[str, object]:
        """This process's totals as plain data (also the wire form)."""
        return {"spans": {name: list(value) for name, value in self.spans.items()},
                "counts": dict(self.counts),
                "samples": list(self.samples),
                "gc_outside_s": self.gc_outside_s}

    def snapshot(self) -> Dict[str, object]:
        """This process's totals and the workers', as plain data."""
        workers = _empty_totals()
        _merge(workers, self.workers)
        return {"local": self.totals(), "workers": workers}

    def clear(self) -> None:
        """Forget every total, in place (the wrappers hold these objects)."""
        self.spans.clear()
        self.counts.clear()
        self.samples.clear()
        self.gc_outside_s = 0.0
        del self._stack[:]

    def _after_fork(self) -> None:
        # A forked worker starts from zero; the dispatcher keeps its totals.
        self.clear()
        self.workers = _empty_totals()

    def merge_worker(self, totals: Dict[str, object]) -> None:
        _merge(self.workers, totals)

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # ------------------------------------------------------------------ spans
    def span(self, name: str, fn: Callable,
             on_result: Callable = None, sample: bool = False) -> Callable:
        """Wrap ``fn`` so each call is timed as span ``name``.

        A call nested directly in a span of the same name (one generator
        delegating to another, ``mutate`` calling ``mutate_once``) is part
        of the outer call, not a call of its own.  ``on_result`` sees the
        call's arguments and result, for counting work.
        """
        stack = self._stack
        spans = self.spans
        samples = self.samples

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                totals = spans.get(name)
                if totals is None:
                    totals = spans[name] = [0, 0.0, 0.0]
                totals[0] += 1
                totals[1] += elapsed - frame[1]
                totals[2] += elapsed
                if sample:
                    samples.append(elapsed)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def span_generator(self, name: str, fn: Callable) -> Callable:
        """Like :meth:`span`, for a generator: each resumption is one call.

        Pool workers' totals ride in the yielded payloads; they are taken
        out here, before the consumer sees the payload.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            timed_next = tracer.span(name, next)
            inner = fn(*args, **kwargs)
            try:
                while True:
                    try:
                        item = timed_next(inner)
                    except StopIteration:
                        return
                    batch, payload = item
                    worker_totals = payload.pop(TRACE_KEY, None)
                    if worker_totals is not None:
                        tracer.merge_worker(worker_totals)
                    yield batch, payload
            finally:
                inner.close()

        return wrapper

    def ship_from_worker(self, fn: Callable) -> Callable:
        """Wrap a batch executor so a pool worker returns its totals with it."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            payload = fn(*args, **kwargs)
            if os.getpid() != tracer.pid:
                payload[TRACE_KEY] = tracer.totals()
                tracer.clear()
            return payload

        return wrapper

    # --------------------------------------------------------------------- gc
    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = _clock()
            return
        pause = _clock() - self._gc_start
        totals = self.spans.get("runtime.gc")
        if totals is None:
            totals = self.spans["runtime.gc"] = [0, 0.0, 0.0]
        totals[0] += 1
        totals[1] += pause
        totals[2] += pause
        if self._stack:
            self._stack[-1][1] += pause
        else:
            self.gc_outside_s += pause


def _empty_totals() -> Dict[str, object]:
    return {"spans": {}, "counts": {}, "samples": [], "gc_outside_s": 0.0}


def _merge(into: Dict[str, object], totals: Dict[str, object]) -> None:
    for name, value in totals["spans"].items():
        current = into["spans"].setdefault(name, [0, 0.0, 0.0])
        for index in range(3):
            current[index] += value[index]
    for name, value in totals["counts"].items():
        into["counts"][name] = into["counts"].get(name, 0) + value
    into["samples"].extend(totals["samples"])
    into["gc_outside_s"] += totals["gc_outside_s"]


# ------------------------------------------------------------------- install
def _method(cls, name: str):
    """The function behind ``cls.name`` as defined on ``cls`` or a base."""
    for klass in cls.__mro__:
        if name in klass.__dict__:
            return klass.__dict__[name]
    raise AttributeError(f"{cls.__name__}.{name}")


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer split is measured at."""
    from repro.core.scheduler import MABScheduler
    from repro.coverage.database import CoverageDatabase
    from repro.exec import backends, batching
    from repro.exec.backends import ProcessPoolBackend
    from repro.exec.checkpoint import CheckpointJournal
    from repro.fuzzing.base import Fuzzer
    from repro.fuzzing.corpus import CorpusManager
    from repro.fuzzing.differential import DifferentialTester
    from repro.fuzzing.mutation import MutationEngine
    from repro.fuzzing.results import FuzzCampaignResult
    from repro.harness import campaign
    from repro.harness.campaign import CampaignSpec
    from repro.isa.generator import SeedGenerator
    from repro.isa.scenarios import MixedSeedGenerator, TrapScenarioGenerator
    from repro.rtl import harness
    from repro.rtl.harness import DutExecutor, DutModel
    from repro.sim import golden
    from repro.sim.executor import Executor
    from repro.sim.golden import GoldenModel, GoldenTraceCache, ModelBase

    span = tracer.span
    count = tracer.count

    def methods(cls, names, span_name, on_result=None):
        for name in names:
            setattr(cls, name, span(span_name, _method(cls, name), on_result))

    methods(MABScheduler, ("select", "update"), "core.schedule")
    for generator in (SeedGenerator, TrapScenarioGenerator, MixedSeedGenerator):
        methods(generator, ("generate",), "isa.generate")
    golden.compile_program = span("isa.compile", golden.compile_program)
    golden.superblocks_for = span("isa.superblocks", golden.superblocks_for)
    methods(MutationEngine, ("mutate", "mutate_once"), "mutation")

    # GoldenModel inherits the shared run loop; patching it on GoldenModel
    # alone leaves the DUT's super().run() call untimed by this span.
    GoldenModel.run = span(
        "sim.golden", _method(ModelBase, "run"),
        lambda args, result: count("sim.golden.instret", result.steps))
    methods(GoldenTraceCache, ("get_or_run",), "sim.golden_cache")
    methods(DutModel, ("run",), "rtl.dut",
            lambda args, result: count("rtl.dut.instret", result.execution.steps))

    # Dispatch paths: every commit a DUT makes inside a superblock goes
    # through DutExecutor.run_block; those made by its hook-preserving
    # fallback also pass through Executor.run_block_generic.  Commits made
    # outside both are per-entry steps.
    def commits(name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(self, block, records):
            before = len(records)
            result = fn(self, block, records)
            count(name, len(records) - before)
            return result

        return wrapper

    DutExecutor.run_block = commits("rtl.path.block_instr",
                                    _method(DutExecutor, "run_block"))
    Executor.run_block_generic = commits("rtl.path.generic_instr",
                                         _method(Executor, "run_block_generic"))

    methods(CoverageDatabase, ("record",), "coverage.record",
            lambda args, result: count("coverage.new_tests", 1 if result else 0))
    harness.points_of = span("coverage.materialise", harness.points_of)
    methods(DifferentialTester, ("check",), "differential",
            lambda args, result: count("differential.mismatches",
                                       1 if result.found_mismatch else 0))

    def corpus_offer(args, admitted):
        count("corpus.offers", 1)
        count("corpus.admitted", 1 if admitted else 0)

    methods(CorpusManager, ("offer",), "corpus", corpus_offer)
    methods(CorpusManager, ("novel_points", "sample"), "corpus")

    trial = span("harness.trial", campaign.run_campaign)
    for module in (campaign, batching, backends):
        setattr(module, "run_campaign", trial)

    # One object under both names, so the pool pickles it by reference
    # and a forked worker resolves it to this same wrapper.
    batch = tracer.ship_from_worker(span("exec.batch", batching.execute_batch))
    for module in (batching, backends):
        setattr(module, "execute_batch", batch)
    ProcessPoolBackend._run_batches = tracer.span_generator(
        "exec.wait", _method(ProcessPoolBackend, "_run_batches"))
    methods(CheckpointJournal, ("record_grid", "record_trial"), "exec.journal")
    for cls in (FuzzCampaignResult, CampaignSpec):
        cls.to_dict = span("exec.wire", _method(cls, "to_dict"))
        cls.from_dict = classmethod(span("exec.wire", _method(cls, "from_dict").__func__))

    Fuzzer.fuzz_one = span("fuzz.test", _method(Fuzzer, "fuzz_one"), sample=True)

    gc.callbacks.append(tracer._on_gc)
    os.register_at_fork(after_in_child=tracer._after_fork)


# -------------------------------------------------------------------- split
#: span -> the module layer it measures, in the order the split prints.
LAYERS = {
    "core.schedule": "core",
    "isa.generate": "isa",
    "isa.compile": "isa",
    "isa.superblocks": "isa",
    "mutation": "fuzzing.mutation",
    "sim.golden": "sim",
    "sim.golden_cache": "sim",
    "rtl.dut": "rtl",
    "coverage.record": "coverage",
    "coverage.materialise": "coverage",
    "differential": "fuzzing.differential",
    "corpus": "fuzzing.corpus",
    "fuzz.test": "fuzzing.loop",
    "harness.trial": "harness",
    "exec.batch": "exec",
    "exec.journal": "exec",
    "exec.wire": "exec",
    "exec.wait": "exec",
    "exec.idle": "exec",
    "runtime.gc": "runtime",
}

#: counters that repeat exactly for a given seed; on a pool grid only the
#: first group does, because process caches decide the rest.
EXACT_COUNTERS = ("isa.generate.calls", "mutation.calls",
                  "sim.golden_cache.hits", "sim.golden_cache.misses")
CACHE_DEPENDENT_COUNTERS = (
    "sim.golden.instret", "rtl.dut.instret", "rtl.path.fused_instr",
    "rtl.path.generic_instr", "rtl.path.entry_instr",
    "isa.compile.hits", "isa.compile.misses", "isa.compile.evictions",
    "isa.superblocks.hits", "isa.superblocks.misses",
    "isa.superblocks.evictions", "exec.cache.dut_hits",
    "exec.cache.dut_misses", "exec.cache.golden_hits",
    "exec.cache.golden_misses", "exec.cache.evictions")


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _percentile(samples: List[float], fraction: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def layer_metrics(snapshot: Dict[str, object], wall: float, workers: int,
                  counters: Dict[str, int], quality: Dict[str, object],
                  resets: int, failed_frac: float) -> Dict[str, float]:
    """The per-layer split of one traced run.

    The traced wall is the timed phase in every process of the run: the
    dispatcher plus ``workers`` pool workers.  A worker's time outside its
    batches is ``exec.idle``; whatever no span covers is ``other``, so the
    self times plus ``other.self_s`` add up to ``trace.wall_s``.
    """
    totals = _empty_totals()
    _merge(totals, snapshot["local"])
    _merge(totals, snapshot["workers"])
    spans = totals["spans"]
    counts = totals["counts"]
    traced_wall = wall * (1 + workers)
    worker_batches = snapshot["workers"]["spans"].get("exec.batch", [0, 0.0, 0.0])[2]
    idle = 0.0
    if workers:
        idle = workers * wall - worker_batches - snapshot["workers"]["gc_outside_s"]
    spans["exec.idle"] = [0, idle, idle]

    metrics: Dict[str, float] = {}
    attributed = 0.0
    for name in LAYERS:
        calls, self_s, _ = spans.get(name, (0, 0.0, 0.0))
        attributed += self_s
        key = "runtime.gc.collections" if name == "runtime.gc" else f"{name}.calls"
        if name != "exec.idle":
            metrics[key] = calls
        metrics[f"{name}.self_s"] = self_s
        metrics[f"{name}.share"] = self_s / traced_wall

    golden = counts.get("sim.golden.instret", 0)
    dut = counts.get("rtl.dut.instret", 0)
    block = counts.get("rtl.path.block_instr", 0)
    generic = counts.get("rtl.path.generic_instr", 0)
    record_calls = spans.get("coverage.record", (0,))[0]
    check_calls = spans.get("differential", (0,))[0]

    def hit_ratio(cache: str) -> float:
        hits = counters[f"{cache}_hits"]
        return _ratio(hits, hits + counters[f"{cache}_misses"])

    metrics.update({
        "core.resets": resets,
        "isa.compile.hits": counters["compiled_trace_hits"],
        "isa.compile.misses": counters["compiled_trace_misses"],
        "isa.compile.evictions": counters["compiled_trace_evictions"],
        "isa.compile.hit_ratio": hit_ratio("compiled_trace"),
        "isa.superblocks.hits": counters["superblock_hits"],
        "isa.superblocks.misses": counters["superblock_misses"],
        "isa.superblocks.evictions": counters["superblock_evictions"],
        "isa.superblocks.hit_ratio": hit_ratio("superblock"),
        "sim.golden.instret": golden,
        "sim.golden_cache.hits": counters["session_golden_hits"],
        "sim.golden_cache.misses": counters["session_golden_misses"],
        "sim.golden_cache.hit_ratio": hit_ratio("session_golden"),
        "rtl.dut.instret": dut,
        "rtl.dut.us_per_instr": _ratio(metrics["rtl.dut.self_s"] * 1e6, dut),
        "rtl.path.fused_instr": block - generic,
        "rtl.path.generic_instr": generic,
        "rtl.path.entry_instr": dut - block,
        "rtl.path.fused_frac": _ratio(block - generic, dut),
        "rtl.path.generic_frac": _ratio(generic, dut),
        "rtl.path.entry_frac": _ratio(dut - block, dut),
        "coverage.new_frac": _ratio(counts.get("coverage.new_tests", 0), record_calls),
        "differential.mismatch_frac": _ratio(counts.get("differential.mismatches", 0),
                                             check_calls),
        "differential.bugs_detected": quality["bugs_detected"],
        "differential.tests_to_detect": quality["tests_to_detect"] or 0.0,
        "corpus.admit_ratio": _ratio(counts.get("corpus.admitted", 0),
                                     counts.get("corpus.offers", 0)),
        "harness.trial.failed_frac": failed_frac,
        "exec.cache.dut_hits": counters["dut_cache_hits"],
        "exec.cache.dut_misses": counters["dut_cache_misses"],
        "exec.cache.dut_hit_ratio": hit_ratio("dut_cache"),
        "exec.cache.golden_hits": counters["shared_golden_hits"],
        "exec.cache.golden_misses": counters["shared_golden_misses"],
        "exec.cache.golden_hit_ratio": hit_ratio("shared_golden"),
        "exec.cache.evictions": (counters["dut_cache_evictions"]
                                 + counters["shared_golden_evictions"]),
        "exec.worker_idle_frac": (1.0 - _ratio(worker_batches, workers * wall)
                                  if workers else 0.0),
        "fuzz.test_p50_us": _percentile(totals["samples"], 0.50) * 1e6,
        "fuzz.test_p99_us": _percentile(totals["samples"], 0.99) * 1e6,
        "other.self_s": traced_wall - attributed,
        "other.share": (traced_wall - attributed) / traced_wall,
        "trace.wall_s": traced_wall,
    })
    return metrics
