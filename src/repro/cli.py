"""Command-line interface.

Installed as the ``mabfuzz`` console script::

    mabfuzz list                                  # processors, fuzzers, bugs
    mabfuzz fuzz --processor cva6 --fuzzer mabfuzz:ucb --tests 500
    mabfuzz table1 --tests 800 --trials 2         # Table I reproduction
    mabfuzz coverage --tests 500 --trials 2       # Fig. 3 + Fig. 4 reproduction
    mabfuzz trapcov --tests 400 --trials 2        # trap/CSR-transition study
    mabfuzz ablation gamma --tests 300            # ablation sweeps
    mabfuzz report --workers 4 --resume grid.jsonl   # parallel + resumable
    mabfuzz worker --queue spool/                 # serve a distributed queue
    mabfuzz deadletter list --queue spool/        # inspect quarantined batches
    mabfuzz telemetry serve --port 9900           # collect --telemetry streams

Every command prints its results to stdout; ``--output`` additionally writes
them to a file.  The grid commands (table1/coverage/report/ablation) accept
``--workers N`` to shard campaigns across processes, ``--backend
distributed --queue DIR`` to dispatch to externally launched ``worker``
processes, and ``--resume PATH`` to journal/restore completed trials --
see docs/parallel.md and docs/distributed.md.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from repro.api import available_fuzzers, available_processors, quick_campaign
from repro.core.config import MABFuzzConfig
from repro.core.monitor import ProgressMonitor
from repro.exec import (
    CampaignEngine,
    DistributedBackend,
    LocalTransport,
    ProcessPoolBackend,
    SerialBackend,
    SpoolQueue,
    SshTransport,
    WorkerSpec,
    WorkerSupervisor,
    faults,
    run_worker,
)
from repro.exec.queue import ATTEMPTS_KEY, MAX_ATTEMPTS_KEY
from repro.telemetry import TelemetryListener, parse_sink_spec
from repro.telemetry.sink import tcp_address
from repro.fuzzing.base import FuzzerConfig
from repro.harness.experiments import (
    ExperimentConfig,
    TRAP_SCENARIOS,
    figure3_series,
    figure4_summary,
    run_alpha_ablation,
    run_arm_count_ablation,
    run_coverage_study,
    run_gamma_ablation,
    run_table1,
    run_trap_coverage_study,
)
from repro.harness.figures import render_figure3
from repro.harness.report import build_experiments_report
from repro.harness.tables import (
    render_ablation_table,
    render_figure4_table,
    render_table1,
    render_trap_coverage_table,
)
from repro.coverage.csr_transitions import COVERAGE_MODELS
from repro.isa.scenarios import SCENARIOS
from repro.rtl.bugs import BUGS_BY_ID


def _experiment_config(args, algorithms=None, processors=None) -> ExperimentConfig:
    return ExperimentConfig(
        num_tests=args.tests,
        trials=args.trials,
        seed=args.seed,
        algorithms=tuple(algorithms or ("egreedy", "ucb", "exp3")),
        processors=tuple(processors or ("cva6", "rocket", "boom")),
        fuzzer_config=FuzzerConfig(num_seeds=args.seeds,
                                   mutants_per_test=args.mutants,
                                   corpus=getattr(args, "corpus", False)),
        mab_config=MABFuzzConfig(),
    )


def _supervisor(args) -> Optional[WorkerSupervisor]:
    """Build the worker supervisor from the grid command's fleet flags."""
    specs = []
    if args.spawn_workers:
        transport = LocalTransport()
        for index in range(args.spawn_workers):
            # A chaos fault plan applies to the first worker slot only:
            # the point of --worker-fault-plan is one scripted casualty
            # whose supervised recovery the rest of the fleet absorbs.
            specs.append(WorkerSpec(
                host=f"local-{index}", transport=transport,
                fault_plan=args.worker_fault_plan if index == 0 else None))
    if args.worker_hosts:
        transport = SshTransport()
        specs.extend(WorkerSpec(host=host, transport=transport)
                     for host in args.worker_hosts)
    if not specs:
        if args.worker_fault_plan or args.crash_loop_budget is not None:
            raise SystemExit("--worker-fault-plan/--crash-loop-budget require "
                             "--spawn-workers or --worker-hosts")
        return None
    kwargs = {}
    if args.crash_loop_budget is not None:
        kwargs["crash_loop_budget"] = args.crash_loop_budget
    return WorkerSupervisor(
        specs, args.queue,
        log=lambda line: print(line, file=sys.stderr, flush=True),
        **kwargs)


def _backend(args):
    """Resolve the execution backend from the grid command's arguments."""
    if args.workers < 1:
        raise SystemExit("--workers must be >= 1")
    backend_name = args.backend
    if backend_name is None:  # infer from the other flags, as before
        backend_name = "process" if args.workers > 1 else "serial"
    if backend_name == "distributed":
        if args.queue is None:
            raise SystemExit("--backend distributed requires --queue DIR")
        if args.workers != 1:
            raise SystemExit("--workers does not apply to --backend "
                             "distributed; parallelism is however many "
                             "`worker` processes are attached to the queue")
        if args.max_tasks_per_child is not None:
            raise SystemExit("--max-tasks-per-child only applies to the "
                             "process backend; recycle distributed workers "
                             "with `worker --max-tasks` instead")
        kwargs = {}
        if args.lease_timeout is not None:
            kwargs["lease_timeout"] = args.lease_timeout
        if args.max_attempts is not None:
            kwargs["max_attempts"] = args.max_attempts
        return DistributedBackend(args.queue,
                                  stop_workers_on_exit=args.stop_workers,
                                  supervisor=_supervisor(args),
                                  **kwargs)
    if args.queue is not None or args.stop_workers:
        raise SystemExit("--queue/--stop-workers require --backend distributed")
    if args.lease_timeout is not None or args.max_attempts is not None:
        raise SystemExit("--lease-timeout/--max-attempts require "
                         "--backend distributed")
    if args.spawn_workers or args.worker_hosts or args.worker_fault_plan \
            or args.crash_loop_budget is not None:
        raise SystemExit("--spawn-workers/--worker-hosts/--worker-fault-plan/"
                         "--crash-loop-budget require --backend distributed")
    if backend_name == "process":
        if args.workers < 2:
            raise SystemExit("--backend process requires --workers >= 2")
        return ProcessPoolBackend(args.workers,
                                  max_tasks_per_child=args.max_tasks_per_child)
    # Serial: reject flags that only make sense with other backends.
    if args.max_tasks_per_child is not None:
        raise SystemExit("--max-tasks-per-child requires --workers > 1")
    if args.workers > 1:
        raise SystemExit("--backend serial is incompatible with --workers > 1")
    return SerialBackend()


def _engine(args) -> CampaignEngine:
    """Build the campaign engine the grid commands hand their specs to."""
    backend = _backend(args)
    if args.batch_size is not None:
        # 0 = unbounded batches (one per cache-locality group).
        backend.batch_size = args.batch_size or None
    telemetry = None
    if args.telemetry:
        telemetry = parse_sink_spec(args.telemetry,
                                    spill_path=args.telemetry_spill)
    elif args.telemetry_spill:
        raise SystemExit("--telemetry-spill requires --telemetry")
    monitor = ProgressMonitor(
        sink=lambda line: print(line, file=sys.stderr, flush=True))
    return CampaignEngine(backend=backend, checkpoint_path=args.resume,
                          monitor=monitor, cache_entries=args.cache_entries,
                          telemetry=telemetry)


def _emit(text: str, output: Optional[str]) -> None:
    print(text)
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


# ----------------------------------------------------------------- commands
def _cmd_list(args) -> int:
    lines = ["Processors:"]
    lines += [f"  {name}" for name in available_processors()]
    lines.append("Fuzzers:")
    lines += [f"  {name}" for name in available_fuzzers()]
    lines.append("Injectable vulnerabilities:")
    for bug_id, bug_cls in sorted(BUGS_BY_ID.items()):
        bug = bug_cls()
        lines.append(f"  {bug_id} (CWE-{bug.cwe}, {bug.processor}): {bug.description}")
    _emit("\n".join(lines), args.output)
    return 0


def _cmd_fuzz(args) -> int:
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    result = quick_campaign(
        processor=args.processor,
        fuzzer=args.fuzzer,
        num_tests=args.tests,
        seed=args.seed,
        fuzzer_config=FuzzerConfig(num_seeds=args.seeds,
                                   mutants_per_test=args.mutants,
                                   scenario=args.scenario,
                                   corpus=args.corpus),
        coverage_model=args.coverage_model,
    )
    if profiler is not None:
        import pstats

        profiler.disable()
        profiler.dump_stats(args.profile)
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("cumulative")
        print(f"profile: top {args.profile_top} functions by cumulative time "
              f"(full stats -> {args.profile})", file=sys.stderr)
        stats.print_stats(args.profile_top)
        print("profile: inspect offline with "
              f"`python -m pstats {args.profile}` "
              "(or snakeviz, if installed)", file=sys.stderr)
    lines = [result.summary()]
    if args.coverage_model == "csr":
        lines.append(f"  csr transitions covered: "
                     f"{result.metadata.get('csr_transition_points', 0)}")
    for bug_id, detection in sorted(result.bug_detections.items()):
        lines.append(f"  {bug_id}: detected after {detection.tests_to_detection} tests")
    _emit("\n".join(lines), args.output)
    return 0


def _cmd_table1(args) -> int:
    config = _experiment_config(args)
    result = run_table1(config, engine=_engine(args))
    _emit(render_table1(result), args.output)
    return 0


def _cmd_coverage(args) -> int:
    config = _experiment_config(args, processors=args.processors)
    study = run_coverage_study(config, engine=_engine(args))
    text = "\n\n".join([
        render_figure3(figure3_series(study)),
        render_figure4_table(figure4_summary(study)),
    ])
    _emit(text, args.output)
    return 0


def _cmd_report(args) -> int:
    config = _experiment_config(args, processors=args.processors)
    engine = _engine(args)
    table1 = run_table1(config, engine=engine)
    study = run_coverage_study(config, engine=engine)
    text = build_experiments_report(table1=table1, study=study,
                                    notes=f"Scaled runs: {args.tests} tests x "
                                          f"{args.trials} trials per campaign.")
    _emit(text, args.output)
    return 0


def _cmd_trapcov(args) -> int:
    config = _experiment_config(args, algorithms=(args.algorithm,),
                                processors=args.processors)
    study = run_trap_coverage_study(config, engine=_engine(args),
                                    algorithm=args.algorithm,
                                    scenarios=tuple(args.scenarios))
    _emit(render_trap_coverage_table(study), args.output)
    return 0


_ABLATIONS = {
    "alpha": (run_alpha_ablation, "alpha"),
    "gamma": (run_gamma_ablation, "gamma"),
    "arms": (run_arm_count_ablation, "num_arms"),
}


def _cmd_ablation(args) -> int:
    config = _experiment_config(args, algorithms=(args.algorithm,),
                                processors=(args.processor,))
    runner, parameter = _ABLATIONS[args.which]
    results = runner(config, processor=args.processor, algorithm=args.algorithm,
                     engine=_engine(args))
    _emit(render_ablation_table(results, parameter_name=parameter), args.output)
    return 0


def _cmd_worker(args) -> int:
    if args.fault_plan:
        faults.install_plan_file(args.fault_plan)
    try:
        executed = run_worker(
            args.queue,
            worker_id=args.worker_id,
            poll_interval=args.poll_interval,
            lease_timeout=args.lease_timeout,
            max_tasks=args.max_tasks,
            max_attempts=args.max_attempts,
            max_poll_interval=args.max_poll_interval,
            log=lambda line: print(line, file=sys.stderr, flush=True),
        )
    except OSError as error:
        # The queue itself failed (publish impossible even after retries):
        # exit nonzero so supervisors restart or alert on this worker.
        # Per-batch errors never reach here -- they are published to the
        # dispatcher and the worker keeps serving.
        print(f"worker error: {error}", file=sys.stderr, flush=True)
        return 1
    print(f"executed {executed} batches")
    return 0


def _cmd_deadletter(args) -> int:
    """Inspect and service the queue's quarantine (docs/service.md)."""
    import json

    queue = SpoolQueue(args.queue)
    ids = sorted(queue.deadletter_ids())
    if args.action == "list":
        if not ids:
            _emit(f"deadletter/ of {args.queue} is empty", args.output)
            return 0
        lines = [f"{len(ids)} quarantined batch(es) in {args.queue}:"]
        for task_id in ids:
            record = queue.read_deadletter(task_id) or {}
            payload = record.get("payload") or {}
            trials = payload.get("tasks") or []
            error = str(record.get("error", "?")).strip().splitlines()
            lines.append(f"  {task_id}: attempts={record.get('attempts')} "
                         f"trials={len(trials)} error={error[0] if error else '?'}")
        _emit("\n".join(lines), args.output)
        return 0
    if args.all:
        targets = ids
    elif args.task_id:
        targets = [args.task_id]
    else:
        raise SystemExit(f"deadletter {args.action} requires TASK_ID or --all")
    lines = []
    for task_id in targets:
        record = queue.read_deadletter(task_id)
        if record is None:
            raise SystemExit(f"no deadletter record for {task_id!r} "
                             f"in {args.queue}")
        if args.action == "show":
            lines.append(json.dumps(record, indent=2, sort_keys=True))
        elif args.action == "discard":
            queue.discard_deadletter(task_id)
            lines.append(f"discarded {task_id}")
        else:  # requeue
            payload = record.get("payload")
            if not isinstance(payload, dict) or payload.get("kind") != "batch":
                raise SystemExit(
                    f"refusing to requeue {task_id}: quarantine record does "
                    "not carry a batch payload (inspect it with "
                    "`deadletter show` and discard it instead)")
            payload = {key: value for key, value in payload.items()
                       if key not in (ATTEMPTS_KEY, MAX_ATTEMPTS_KEY)}
            budget = args.max_attempts
            if budget is None:
                original = (record.get("payload") or {}).get(MAX_ATTEMPTS_KEY)
                budget = int(original) if original is not None else None
            # Fresh retry envelope: the batch earned its quarantine under
            # the old budget; requeueing it is an operator's decision to
            # try again from zero.
            queue.ensure().enqueue(task_id, payload, attempts=0,
                                   max_attempts=budget)
            queue.discard_deadletter(task_id)
            lines.append(f"requeued {task_id} (fresh budget "
                         f"{budget if budget is not None else 'unbounded'})")
    _emit("\n".join(lines), args.output)
    return 0


def _cmd_telemetry(args) -> int:
    """Run the NDJSON telemetry collector until interrupted."""
    listener = TelemetryListener(host=args.host, port=args.port,
                                 path=args.log)
    listener.start()
    print(f"telemetry: listening on {listener.host}:{listener.port}"
          + (f", events -> {args.log}" if args.log else ""),
          file=sys.stderr, flush=True)
    try:
        while True:
            import time

            time.sleep(0.5)
    except KeyboardInterrupt:
        pass
    finally:
        listener.stop()
        print(f"telemetry: {len(listener.events)} events received",
              file=sys.stderr, flush=True)
    return 0


# -------------------------------------------------------------------- parser
_EXECUTION_EPILOG = """\
parallel execution:
  --workers N shards the campaign grid across N worker processes;
  --backend distributed --queue DIR dispatches to `worker` processes
  launched separately against the same spool directory;
  --resume PATH journals completed trials to a JSONL checkpoint and
  restores them on the next invocation with the same configuration.
  Results are bit-identical whichever backend runs them (docs/parallel.md,
  docs/distributed.md).
"""


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _positive_int(text: str) -> int:
    """argparse type of a count that must be at least 1."""
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    """argparse type of a count that may be 0, or of a base RNG seed
    (numpy requires seeds to be >= 0)."""
    value = _int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {value}")
    return value


def _positive_float(text: str) -> float:
    """argparse type of an interval in seconds, which must be above 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}") from None
    if not value > 0:  # also rejects nan
        raise argparse.ArgumentTypeError(
            f"must be a positive number, got {text}")
    return value


def _port(text: str) -> int:
    """argparse type of a TCP port number (0 = ephemeral)."""
    value = _int(text)
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(
            f"must be a port number in 0-65535, got {value}")
    return value


def _telemetry_spec(text: str) -> str:
    """argparse type of a ``--telemetry`` sink spec: a ``tcp:`` spec must
    have :func:`~repro.telemetry.sink.parse_sink_spec`'s form and a port
    in 0-65535 (the sink itself is built after parsing)."""
    if text.startswith("tcp:"):
        try:
            _, port = tcp_address(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        _port(str(port))
    return text


def _fault_plan(text: str) -> str:
    """argparse type of a fault-plan JSON path: the plan must load."""
    try:
        faults.FaultPlan.from_file(text)
    except OSError as exc:
        raise argparse.ArgumentTypeError(
            f"cannot load fault plan {text!r}: {exc.strerror}") from None
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise argparse.ArgumentTypeError(
            f"cannot load fault plan {text!r}: {exc}") from None
    return text


def _path_in_existing_dir(text: str) -> str:
    """argparse type of a file to write, whose directory must already exist.

    Checked at parse time, so a bad path fails before any campaign runs
    rather than after it.
    """
    directory = os.path.dirname(text) or "."
    if not os.path.isdir(directory):
        raise argparse.ArgumentTypeError(
            f"directory does not exist: {directory!r}")
    return text


def _add_common_campaign_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tests", type=_positive_int, default=400,
                        help="tests per campaign")
    parser.add_argument("--trials", type=_positive_int, default=2,
                        help="trials per campaign")
    parser.add_argument("--seed", type=_non_negative_int, default=0,
                        help="base RNG seed")
    parser.add_argument("--seeds", type=_positive_int, default=10,
                        help="initial seed tests")
    parser.add_argument("--mutants", type=_positive_int, default=4,
                        help="mutants per interesting test")
    parser.add_argument("--corpus", action="store_true",
                        help="enable the coverage-directed corpus: tests "
                             "reaching novel coverage are kept as seeds, "
                             "mutation draws from them, and trials/workers "
                             "share one global coverage map (docs/corpus.md)")
    parser.add_argument("--output", type=_path_in_existing_dir,
                        help="also write the result to this file")


def _add_execution_arguments(parser: argparse.ArgumentParser) -> None:
    """Options of the parallel execution engine (grid commands only)."""
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for the campaign grid "
                             "(1 = serial in-process)")
    parser.add_argument("--backend", choices=("serial", "process", "distributed"),
                        default=None,
                        help="execution backend (default: inferred from "
                             "--workers)")
    parser.add_argument("--queue", metavar="DIR", default=None,
                        help="spool directory shared with `worker` processes "
                             "(distributed backend only)")
    parser.add_argument("--stop-workers", action="store_true",
                        help="write the queue's STOP sentinel when the grid "
                             "finishes, so attached workers drain and exit")
    parser.add_argument("--lease-timeout", type=_positive_float, default=None,
                        help="seconds before a silent worker's claim is "
                             "requeued (distributed backend only)")
    parser.add_argument("--max-attempts", type=_positive_int, default=None,
                        help="execution budget per batch before it is "
                             "quarantined in deadletter/ (distributed "
                             "backend only; default 3)")
    parser.add_argument("--max-tasks-per-child", type=_positive_int,
                        default=None,
                        help="recycle each pool worker after this many batches")
    parser.add_argument("--batch-size", type=_non_negative_int, default=None,
                        help="max trials per worker batch (0 = one batch per "
                             "cache-locality group)")
    parser.add_argument("--cache-entries", type=_positive_int, default=None,
                        help="capacity of each per-worker cache: golden "
                             "runs, DUT runs and compiled programs "
                             "(default 4096)")
    parser.add_argument("--resume", metavar="PATH", default=None,
                        type=_path_in_existing_dir,
                        help="JSONL checkpoint journal to write and resume from")
    parser.add_argument("--spawn-workers", type=_non_negative_int, default=0,
                        metavar="N",
                        help="launch and supervise N local `worker` "
                             "processes for the queue (distributed backend "
                             "only; crashed workers restart under the "
                             "crash-loop budget, docs/service.md)")
    parser.add_argument("--worker-hosts", nargs="+", metavar="HOST",
                        default=None,
                        help="launch and supervise one `worker` per ssh "
                             "host (distributed backend only)")
    parser.add_argument("--crash-loop-budget", type=_positive_int,
                        default=None,
                        help="supervised restarts allowed per host per "
                             "crash window before the host is marked "
                             "degraded (default 3)")
    parser.add_argument("--worker-fault-plan", metavar="PATH", type=_fault_plan,
                        default=None,
                        help="fault-plan JSON exported to the first "
                             "supervised worker's initial spawn (chaos "
                             "testing; restarts run clean)")
    parser.add_argument("--telemetry", metavar="SPEC", type=_telemetry_spec,
                        default=None,
                        help="stream NDJSON campaign telemetry to a sink: "
                             "tcp:HOST:PORT, file:PATH, or a bare file "
                             "path (docs/service.md)")
    parser.add_argument("--telemetry-spill", metavar="PATH", default=None,
                        help="local spill file for events a disconnected "
                             "tcp: telemetry sink cannot buffer")
    parser.epilog = _EXECUTION_EPILOG
    parser.formatter_class = argparse.RawDescriptionHelpFormatter


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mabfuzz", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser("list", help="list processors, fuzzers and bugs")
    list_parser.add_argument("--output", type=_path_in_existing_dir)
    list_parser.set_defaults(func=_cmd_list)

    fuzz_parser = subparsers.add_parser("fuzz", help="run one fuzzing campaign")
    fuzz_parser.add_argument("--processor", default="cva6",
                             choices=available_processors())
    fuzz_parser.add_argument("--fuzzer", default="mabfuzz:ucb",
                             choices=available_fuzzers())
    fuzz_parser.add_argument("--scenario", default="user", choices=SCENARIOS,
                             help="seed workload family: user-level, "
                                  "trap/CSR scenarios, or an alternating mix")
    fuzz_parser.add_argument("--coverage-model", default="base",
                             choices=COVERAGE_MODELS,
                             help="'csr' adds CSR-transition coverage points "
                                  "(docs/coverage.md)")
    fuzz_parser.add_argument("--profile", metavar="PATH", default=None,
                             type=_path_in_existing_dir,
                             help="run the campaign under cProfile and dump "
                                  "the stats to PATH (a hot-function summary "
                                  "is printed to stderr); see "
                                  "docs/performance.md")
    fuzz_parser.add_argument("--profile-top", type=_positive_int, default=25,
                             help="functions to show in the stderr profile "
                                  "summary (default 25)")
    _add_common_campaign_arguments(fuzz_parser)
    fuzz_parser.set_defaults(func=_cmd_fuzz)

    table1_parser = subparsers.add_parser("table1", help="reproduce Table I")
    _add_common_campaign_arguments(table1_parser)
    _add_execution_arguments(table1_parser)
    table1_parser.set_defaults(func=_cmd_table1)

    coverage_parser = subparsers.add_parser("coverage",
                                            help="reproduce Fig. 3 and Fig. 4")
    coverage_parser.add_argument("--processors", nargs="+",
                                 default=["cva6", "rocket", "boom"],
                                 choices=["cva6", "rocket", "boom"])
    _add_common_campaign_arguments(coverage_parser)
    _add_execution_arguments(coverage_parser)
    coverage_parser.set_defaults(func=_cmd_coverage)

    report_parser = subparsers.add_parser("report",
                                          help="run all experiments and emit a Markdown report")
    report_parser.add_argument("--processors", nargs="+",
                               default=["cva6", "rocket", "boom"],
                               choices=["cva6", "rocket", "boom"])
    _add_common_campaign_arguments(report_parser)
    _add_execution_arguments(report_parser)
    report_parser.set_defaults(func=_cmd_report)

    trapcov_parser = subparsers.add_parser(
        "trapcov", help="trap/CSR scenario study: CSR-transition coverage "
                        "per seed scenario")
    trapcov_parser.add_argument("--processors", nargs="+",
                                default=["cva6", "rocket", "boom"],
                                choices=["cva6", "rocket", "boom"])
    trapcov_parser.add_argument("--algorithm", default="ucb",
                                choices=("egreedy", "ucb", "exp3"))
    trapcov_parser.add_argument("--scenarios", nargs="+",
                                default=list(TRAP_SCENARIOS),
                                choices=list(SCENARIOS),
                                help="seed scenarios to compare")
    _add_common_campaign_arguments(trapcov_parser)
    _add_execution_arguments(trapcov_parser)
    trapcov_parser.set_defaults(func=_cmd_trapcov)

    ablation_parser = subparsers.add_parser("ablation", help="run an ablation sweep")
    ablation_parser.add_argument("which", choices=sorted(_ABLATIONS))
    ablation_parser.add_argument("--processor", default="cva6",
                                 choices=available_processors())
    ablation_parser.add_argument("--algorithm", default="ucb",
                                 choices=("egreedy", "ucb", "exp3"))
    _add_common_campaign_arguments(ablation_parser)
    _add_execution_arguments(ablation_parser)
    ablation_parser.set_defaults(func=_cmd_ablation)

    worker_parser = subparsers.add_parser(
        "worker", help="serve a distributed campaign queue until its STOP "
                       "sentinel appears")
    worker_parser.add_argument("--queue", metavar="DIR", required=True,
                               help="spool directory shared with the dispatcher")
    worker_parser.add_argument("--worker-id", default=None,
                               help="stable worker name (default: host-pid)")
    worker_parser.add_argument("--poll-interval", type=_positive_float,
                               default=0.2,
                               help="seconds between queue scans while idle")
    worker_parser.add_argument("--lease-timeout", type=_positive_float,
                               default=300.0,
                               help="seconds before another worker's stalled "
                                    "claim is rescued")
    worker_parser.add_argument("--max-tasks", type=_positive_int, default=None,
                               help="exit after this many batches (worker "
                                    "recycling)")
    worker_parser.add_argument("--max-attempts", type=_positive_int,
                               default=None,
                               help="retry-budget fallback applied when "
                                    "rescuing stale tasks enqueued without "
                                    "one (default 3)")
    worker_parser.add_argument("--max-poll-interval", type=_positive_float,
                               default=None,
                               help="ceiling of the idle-poll backoff "
                                    "(default 16x --poll-interval)")
    worker_parser.add_argument("--fault-plan", metavar="PATH", type=_fault_plan,
                               default=None,
                               help="fault-injection plan JSON for chaos "
                                    "testing (docs/robustness.md)")
    worker_parser.set_defaults(func=_cmd_worker)

    deadletter_parser = subparsers.add_parser(
        "deadletter", help="inspect, requeue or discard quarantined batches")
    deadletter_parser.add_argument("action",
                                   choices=("list", "show", "requeue",
                                            "discard"))
    deadletter_parser.add_argument("task_id", nargs="?", default=None,
                                   help="quarantined task id (see `list`)")
    deadletter_parser.add_argument("--queue", metavar="DIR", required=True,
                                   help="spool directory holding the "
                                        "deadletter/ quarantine")
    deadletter_parser.add_argument("--all", action="store_true",
                                   help="apply show/requeue/discard to every "
                                        "quarantined batch")
    deadletter_parser.add_argument("--max-attempts", type=_positive_int,
                                   default=None,
                                   help="retry budget for requeued batches "
                                        "(default: the batch's original "
                                        "budget)")
    deadletter_parser.add_argument("--output", type=_path_in_existing_dir)
    deadletter_parser.set_defaults(func=_cmd_deadletter)

    telemetry_parser = subparsers.add_parser(
        "telemetry", help="serve a TCP collector for --telemetry tcp: "
                          "streams")
    telemetry_parser.add_argument("action", choices=("serve",))
    telemetry_parser.add_argument("--host", default="127.0.0.1")
    telemetry_parser.add_argument("--port", type=_port, default=0,
                                  help="TCP port (0 = ephemeral, printed "
                                       "on stderr)")
    telemetry_parser.add_argument("--log", metavar="PATH", default=None,
                                  help="append received events to this "
                                       "NDJSON file")
    telemetry_parser.set_defaults(func=_cmd_telemetry)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``mabfuzz`` console script."""
    # Chaos CI jobs inject dispatcher-side faults by exporting
    # REPRO_FAULT_PLAN; a no-op when the variable is unset.
    faults.install_from_env()
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
