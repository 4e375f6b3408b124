"""Micro-benchmarks of the substrate itself (simulation and fuzzing throughput).

These are conventional timing benchmarks (multiple rounds) rather than
one-shot experiment regenerations: they track how expensive one golden-model
run, one instrumented DUT run and one full fuzzing iteration are -- the
quantities that determine how far the scaled campaigns can go.
"""

import pytest

from repro.api import make_fuzzer, make_processor
from repro.core.config import MABFuzzConfig
from repro.exec import ProcessPoolBackend, SerialBackend, grid_summary, run_grid
from repro.fuzzing.base import FuzzerConfig
from repro.fuzzing.corpus import CorpusManager
from repro.fuzzing.mutation import MutationEngine
from repro.harness.campaign import CampaignSpec, trial_seed
from repro.isa.generator import SeedGenerator
from repro.isa.program import program_id_scope
from repro.sim.golden import GoldenModel


@pytest.fixture(scope="module")
def sample_programs():
    return SeedGenerator(rng=42).generate_many(20)


def test_golden_model_run_throughput(benchmark, sample_programs):
    golden = GoldenModel()

    def run_all():
        return [golden.run(p).instret for p in sample_programs]

    retired = benchmark(run_all)
    assert all(count >= 1 for count in retired)


@pytest.mark.parametrize("processor", ["cva6", "rocket", "boom"])
def test_dut_model_run_throughput(benchmark, sample_programs, processor):
    dut = make_processor(processor, bugs=[])

    def run_all():
        return [dut.run(p).coverage_count for p in sample_programs]

    counts = benchmark(run_all)
    assert all(count > 0 for count in counts)


def test_mutation_engine_throughput(benchmark, sample_programs):
    engine = MutationEngine(rng=1)

    def mutate_all():
        return [engine.mutate(p, count=4) for p in sample_programs]

    children = benchmark(mutate_all)
    assert all(len(batch) == 4 for batch in children)


def test_thehuzz_iteration_throughput(benchmark):
    fuzzer = make_fuzzer("thehuzz", make_processor("rocket", bugs=[]),
                         fuzzer_config=FuzzerConfig(num_seeds=5), rng=0)
    outcome = benchmark(fuzzer.fuzz_one)
    assert outcome.coverage


def test_mabfuzz_iteration_throughput(benchmark):
    fuzzer = make_fuzzer("mabfuzz:ucb", make_processor("rocket", bugs=[]),
                         fuzzer_config=FuzzerConfig(num_seeds=5),
                         mab_config=MABFuzzConfig(num_arms=5), rng=0)
    outcome = benchmark(fuzzer.fuzz_one)
    assert outcome.coverage


# --------------------------------------------------------------- campaign grids
# A multi-campaign grid (2 processors x 2 fuzzers x 2 trials) run through
# the execution subsystem on both backends.  Comparing the two medians in
# BENCH_throughput.json gives the parallel speedup on this machine.  Every
# round draws fresh base seeds so neither backend trivially serves its
# whole workload out of the DUT-run/golden caches warmed by earlier rounds.
#
# Grid rounds are seconds long, so pytest-benchmark only gets a few of
# them; with rounds=2 and no warmup the committed medians carried up to
# ~40% stddev and the CI regression gate's 30% tolerance could trip on
# noise.  One warmup round (pays the process-pool spin-up, decode/compile
# cache warming and allocator growth) plus three measured rounds keeps the
# medians comparable across runs without inflating wall-clock much.
_GRID_ROUNDS = dict(rounds=3, iterations=1, warmup_rounds=1)
_GRID_SEEDS = iter(range(1000, 2000))


def _grid_specs():
    seed = next(_GRID_SEEDS)
    return [
        CampaignSpec(processor=processor, fuzzer=fuzzer, num_tests=120,
                     trials=2, seed=seed, bugs=[],
                     fuzzer_config=FuzzerConfig(num_seeds=4, mutants_per_test=2))
        for processor in ("cva6", "rocket")
        for fuzzer in ("thehuzz", "mabfuzz:ucb")
    ]


def _check_grid(trialsets):
    summary = grid_summary(trialsets)
    assert summary["specs"] == 4
    assert summary["trials_completed"] == summary["trials_expected"] == 8
    assert summary["tests_executed"] == 8 * 120


def test_campaign_grid_serial_throughput(benchmark):
    trialsets = benchmark.pedantic(
        lambda: run_grid(_grid_specs(), backend=SerialBackend()),
        **_GRID_ROUNDS)
    _check_grid(trialsets)


def test_campaign_grid_parallel_throughput(benchmark):
    backend = ProcessPoolBackend(workers=4)
    trialsets = benchmark.pedantic(
        lambda: run_grid(_grid_specs(), backend=backend),
        **_GRID_ROUNDS)
    _check_grid(trialsets)


# A bug-sweep grid: the same (processor, fuzzer, seed) campaign under three
# injected-bug sets.  Trial seeds ignore the bug set, so the three variants
# generate identical seed corpora and the shared golden-trace fallback
# serves two out of three golden runs for every program the campaigns have
# in common -- the workload batched execution amortizes.  (Tracked as its
# own trajectory metric; it is not an A/B against the grid above.)
def _bug_sweep_specs():
    seed = next(_GRID_SEEDS)
    return [
        CampaignSpec(processor="cva6", fuzzer="thehuzz", num_tests=120,
                     trials=2, seed=seed, bugs=list(bugs),
                     fuzzer_config=FuzzerConfig(num_seeds=4, mutants_per_test=2))
        for bugs in ((), ("V5",), ("V2", "V6"))
    ]


def test_campaign_grid_batched_bug_sweep_throughput(benchmark):
    backend = SerialBackend(batch_size=None)
    trialsets = benchmark.pedantic(
        lambda: run_grid(_bug_sweep_specs(), backend=backend),
        **_GRID_ROUNDS)
    summary = grid_summary(trialsets)
    assert summary["specs"] == 3
    assert summary["trials_completed"] == 6
    assert summary["tests_executed"] == 6 * 120


# ----------------------------------------------------------- trap/CSR workload
# The trap-scenario campaign: mixed user/trap arms under the "csr" coverage
# model (docs/coverage.md).  Tracks what the richer coverage signal costs
# per campaign -- the CSR-transition tracker rides the observe-commit hot
# path -- and gives the CI regression gate a number for the new workload.
def _trap_specs():
    seed = next(_GRID_SEEDS)
    return [
        CampaignSpec(processor=processor, fuzzer="mabfuzz:ucb", num_tests=120,
                     trials=2, seed=seed, bugs=[],
                     fuzzer_config=FuzzerConfig(num_seeds=4, mutants_per_test=2,
                                                scenario="mixed"),
                     coverage_model="csr")
        for processor in ("cva6", "rocket")
    ]


def test_trap_scenario_campaign_throughput(benchmark):
    trialsets = benchmark.pedantic(
        lambda: run_grid(_trap_specs(), backend=SerialBackend()),
        **_GRID_ROUNDS)
    summary = grid_summary(trialsets)
    assert summary["specs"] == 2
    assert summary["trials_completed"] == 4
    assert summary["tests_executed"] == 4 * 120
    results = [r for ts in trialsets for r in ts.completed_results()]
    assert any(r.metadata["csr_transition_points"] > 0 for r in results)


# --------------------------------------------------------------- corpus mode
# Coverage per budget (docs/corpus.md, docs/performance.md): times a
# corpus-on MABFuzz grid through the execution subsystem, and records in
# extra_info a seeded corpus-on vs corpus-off A/B of union coverage at the
# same fixed trial budget.  The A/B numbers land in BENCH_throughput.json
# as ``corpus_off_points`` / ``corpus_on_points``; corpus-on must reach
# strictly more distinct points (the subsystem's acceptance property, also
# test-enforced in tests/exec/test_corpus_exec.py).  The budget sits past
# the measured break-even (~80 tests/trial) where cross-trial feedback
# pays for the lost seed diversity.
_CORPUS_BUDGET = dict(num_tests=80, trials=3)
_CORPUS_AB_SEED = 7


def _corpus_spec(corpus, seed):
    return CampaignSpec(processor="rocket", fuzzer="mabfuzz:ucb",
                        seed=seed, bugs=[],
                        fuzzer_config=FuzzerConfig(num_seeds=3,
                                                   mutants_per_test=2,
                                                   corpus=corpus),
                        **_CORPUS_BUDGET)


def _grid_union_points(corpus):
    """Distinct coverage points reached across the grid's trials (with
    corpus state threaded trial to trial exactly as the serial backend
    threads it)."""
    spec = _corpus_spec(corpus, _CORPUS_AB_SEED)
    state = CorpusManager()
    union = set()
    for trial in range(spec.trials):
        with program_id_scope():
            dut = make_processor(spec.processor, bugs=spec.bugs)
            fuzzer = make_fuzzer(spec.fuzzer, dut,
                                 fuzzer_config=spec.fuzzer_config,
                                 rng=trial_seed(spec, trial))
            if fuzzer.corpus is not None:
                fuzzer.corpus.merge_payload(state.to_payload())
                fuzzer.on_corpus_state()
            fuzzer.run(spec.num_tests)
            union |= set(fuzzer.session.coverage_db.covered)
            if fuzzer.corpus is not None:
                state.merge_payload(fuzzer.corpus.to_payload())
    return len(union)


def test_corpus_coverage_growth(benchmark):
    trialsets = benchmark.pedantic(
        lambda: run_grid([_corpus_spec(True, next(_GRID_SEEDS))],
                         backend=SerialBackend()),
        **_GRID_ROUNDS)
    summary = grid_summary(trialsets)
    assert summary["trials_completed"] == _CORPUS_BUDGET["trials"]
    off_points = _grid_union_points(corpus=False)
    on_points = _grid_union_points(corpus=True)
    benchmark.extra_info["corpus_off_points"] = off_points
    benchmark.extra_info["corpus_on_points"] = on_points
    assert on_points > off_points


# ---------------------------------------------------------------- telemetry
# Campaign telemetry (docs/service.md) rides the trial completion path, so
# its cost is pinned here: the benchmark times the telemetry-on grid (the
# number the regression gate tracks), and the <5% bound is asserted from a
# deterministic decomposition -- events-per-grid x per-event cost against
# an inline telemetry-off baseline -- rather than a direct A/B of two
# multi-second medians, which a noisy 1-CPU runner could not hold to 5%.
def test_telemetry_overhead(benchmark, tmp_path_factory):
    import itertools
    import time as time_module

    from repro.exec import CampaignEngine
    from repro.telemetry import FileSink, TelemetryRecorder

    out_dir = tmp_path_factory.mktemp("telemetry")
    round_ids = itertools.count()
    event_files = []

    def run_with_telemetry():
        path = out_dir / f"events-{next(round_ids)}.ndjson"
        event_files.append(path)
        engine = CampaignEngine(backend=SerialBackend(),
                                telemetry=FileSink(str(path)))
        return engine.run_grid(_grid_specs())

    trialsets = benchmark.pedantic(run_with_telemetry, **_GRID_ROUNDS)
    _check_grid(trialsets)
    events_per_grid = len(event_files[-1].read_bytes().splitlines())
    assert events_per_grid >= 8 + 2  # one per trial plus run_start/finish

    # Telemetry-off baseline for the same grid, timed inline.
    start = time_module.perf_counter()
    run_grid(_grid_specs(), backend=SerialBackend())
    baseline_seconds = time_module.perf_counter() - start

    # Per-event cost of the enabled recorder, with a representative
    # trial-event payload, against a real file sink.
    recorder = TelemetryRecorder(FileSink(str(out_dir / "micro.ndjson")))
    micro_events = 2000
    start = time_module.perf_counter()
    for index in range(micro_events):
        recorder.record("trial", spec_index=0, trial_index=index,
                        label="rocket/mabfuzz:ucb", coverage=41,
                        total_points=96, bugs=[],
                        cache={"dut_hits": 9, "dut_misses": 3})
    per_event = (time_module.perf_counter() - start) / micro_events
    recorder.close()
    assert recorder.stats()["errors"] == 0

    # A disabled recorder must cost nothing: no events, no file, and a
    # per-call price indistinguishable from an attribute check.
    disabled = TelemetryRecorder(None)
    start = time_module.perf_counter()
    for index in range(micro_events):
        disabled.record("trial", spec_index=0, trial_index=index)
    per_disabled = (time_module.perf_counter() - start) / micro_events
    assert disabled.stats() == {"events": 0, "errors": 0}

    overhead_pct = 100.0 * events_per_grid * per_event / baseline_seconds
    benchmark.extra_info["telemetry_events_per_grid"] = events_per_grid
    benchmark.extra_info["telemetry_event_cost_us"] = round(per_event * 1e6, 2)
    benchmark.extra_info["telemetry_overhead_pct"] = round(overhead_pct, 4)
    benchmark.extra_info["telemetry_disabled_cost_us"] = round(
        per_disabled * 1e6, 3)
    assert overhead_pct < 5.0
    assert per_disabled < per_event  # the disabled path skips the sink entirely
