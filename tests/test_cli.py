"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fuzz_defaults(self):
        args = build_parser().parse_args(["fuzz"])
        assert args.processor == "cva6"
        assert args.fuzzer == "mabfuzz:ucb"
        assert args.tests == 400

    def test_ablation_choices(self):
        args = build_parser().parse_args(["ablation", "gamma", "--tests", "50"])
        assert args.which == "gamma"
        assert args.tests == 50
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ablation", "nonsense"])

    def test_execution_defaults(self):
        args = build_parser().parse_args(["report"])
        assert args.workers == 1
        assert args.resume is None
        assert args.max_tasks_per_child is None

    def test_execution_flags_on_grid_commands(self):
        for command in (["table1"], ["coverage"], ["report"],
                        ["ablation", "gamma"]):
            args = build_parser().parse_args(
                command + ["--workers", "4", "--resume", "grid.jsonl",
                           "--max-tasks-per-child", "8"])
            assert args.workers == 4
            assert args.resume == "grid.jsonl"
            assert args.max_tasks_per_child == 8

    def test_fuzz_has_no_workers_flag(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fuzz", "--workers", "2"])

    def test_recycling_without_workers_rejected(self):
        with pytest.raises(SystemExit, match="--workers"):
            main(["ablation", "arms", "--tests", "6", "--trials", "1",
                  "--max-tasks-per-child", "4"])

    def test_nonpositive_workers_rejected(self):
        for workers in ("0", "-2"):
            with pytest.raises(SystemExit, match="--workers must be"):
                main(["ablation", "arms", "--tests", "6", "--trials", "1",
                      "--workers", workers])

    def test_backend_flags_parse(self):
        args = build_parser().parse_args(
            ["table1", "--backend", "distributed", "--queue", "spool",
             "--stop-workers", "--batch-size", "8", "--cache-entries", "512"])
        assert args.backend == "distributed"
        assert args.queue == "spool"
        assert args.stop_workers
        assert args.batch_size == 8
        assert args.cache_entries == 512

    def test_distributed_requires_queue(self):
        with pytest.raises(SystemExit, match="--queue"):
            main(["ablation", "arms", "--tests", "6", "--trials", "1",
                  "--backend", "distributed"])

    def test_queue_requires_distributed_backend(self):
        with pytest.raises(SystemExit, match="--backend distributed"):
            main(["ablation", "arms", "--tests", "6", "--trials", "1",
                  "--queue", "spool"])

    def test_distributed_rejects_pool_recycling_flag(self):
        with pytest.raises(SystemExit, match="worker --max-tasks"):
            main(["ablation", "arms", "--tests", "6", "--trials", "1",
                  "--backend", "distributed", "--queue", "spool",
                  "--max-tasks-per-child", "8"])

    @pytest.mark.parametrize("argv, message", [
        (["fuzz", "--tests", "0"], "must be a positive integer, got 0"),
        (["fuzz", "--seeds", "0"], "must be a positive integer, got 0"),
        (["fuzz", "--mutants", "-1"], "must be a positive integer, got -1"),
        (["table1", "--trials", "0"], "must be a positive integer, got 0"),
        (["coverage", "--tests", "many"], "invalid int value: 'many'"),
        (["fuzz", "--seed", "-1"], "must be a non-negative integer, got -1"),
        (["table1", "--seed", "-1"], "must be a non-negative integer, got -1"),
        (["trapcov", "--seed", "-7"], "must be a non-negative integer, got -7"),
        (["fuzz", "--profile-top", "-3"], "must be a positive integer, got -3"),
        (["fuzz", "--profile-top", "0"], "must be a positive integer, got 0"),
        (["fuzz", "--output", "/nonexistent/dir/out.md"],
         "directory does not exist: '/nonexistent/dir'"),
        (["fuzz", "--profile", "/nonexistent/dir/x.prof"],
         "directory does not exist: '/nonexistent/dir'"),
        (["table1", "--resume", "/nonexistent/dir/j.jsonl"],
         "directory does not exist: '/nonexistent/dir'"),
        (["list", "--output", "/nonexistent/dir/list.txt"],
         "directory does not exist: '/nonexistent/dir'"),
        # Execution-engine and service flags: a value past argparse would
        # reach a constructor that raises (or, for --spawn-workers, a
        # dispatcher that waits forever for workers).  The flag under test
        # comes first, so argparse rejects it before the other flags.
        (["table1", "--batch-size", "-2"],
         "must be a non-negative integer, got -2"),
        (["ablation", "--cache-entries", "0", "arms"],
         "must be a positive integer, got 0"),
        (["table1", "--max-tasks-per-child", "0", "--workers", "2"],
         "must be a positive integer, got 0"),
        (["table1", "--max-attempts", "0", "--backend", "distributed",
          "--queue", "Q"], "must be a positive integer, got 0"),
        (["table1", "--lease-timeout", "-1", "--backend", "distributed",
          "--queue", "Q"], "must be a positive number, got -1"),
        (["table1", "--lease-timeout", "0", "--backend", "distributed",
          "--queue", "Q"], "must be a positive number, got 0"),
        (["table1", "--lease-timeout", "soon"], "invalid float value: 'soon'"),
        (["table1", "--spawn-workers", "-1", "--backend", "distributed",
          "--queue", "Q"], "must be a non-negative integer, got -1"),
        (["table1", "--crash-loop-budget", "0"],
         "must be a positive integer, got 0"),
        (["worker", "--max-tasks", "0", "--queue", "Q"],
         "must be a positive integer, got 0"),
        (["worker", "--max-attempts", "0", "--queue", "Q"],
         "must be a positive integer, got 0"),
        (["worker", "--lease-timeout", "-1", "--queue", "Q"],
         "must be a positive number, got -1"),
        (["worker", "--poll-interval", "0", "--queue", "Q"],
         "must be a positive number, got 0"),
        (["worker", "--max-poll-interval", "nan", "--queue", "Q"],
         "must be a positive number, got nan"),
        (["deadletter", "--max-attempts", "0", "list", "--queue", "Q"],
         "must be a positive integer, got 0"),
        (["telemetry", "--port", "-1", "serve"],
         "must be a port number in 0-65535, got -1"),
        (["telemetry", "--port", "65536", "serve"],
         "must be a port number in 0-65535, got 65536"),
        # A bad telemetry sink or fault plan would otherwise surface only
        # once the campaign (or worker) is under way.
        (["table1", "--telemetry", "tcp:localhost"],
         "bad telemetry spec 'tcp:localhost': expected tcp:HOST:PORT"),
        (["table1", "--telemetry", "tcp:127.0.0.1:99999"],
         "must be a port number in 0-65535, got 99999"),
        (["worker", "--fault-plan", "/nonexistent.json", "--queue", "Q"],
         "cannot load fault plan '/nonexistent.json': "
         "No such file or directory"),
        (["table1", "--worker-fault-plan", "/nonexistent.json", "--backend",
          "distributed", "--queue", "Q", "--spawn-workers", "1"],
         "cannot load fault plan '/nonexistent.json': "
         "No such file or directory"),
    ])
    def test_bad_counts_rejected_with_usage_error(self, argv, message, capsys):
        # Parse only: should a type check regress, the command must not
        # run (a negative --spawn-workers would wait forever for workers).
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        error = capsys.readouterr().err.strip().splitlines()[-1]
        assert error == f"mabfuzz {argv[0]}: error: argument {argv[1]}: {message}"

    def test_serial_backend_rejects_workers(self):
        with pytest.raises(SystemExit, match="incompatible"):
            main(["ablation", "arms", "--tests", "6", "--trials", "1",
                  "--backend", "serial", "--workers", "3"])

    def test_worker_command_parses(self):
        args = build_parser().parse_args(
            ["worker", "--queue", "spool", "--max-tasks", "3",
             "--worker-id", "w7", "--poll-interval", "0.5"])
        assert args.queue == "spool"
        assert args.max_tasks == 3
        assert args.worker_id == "w7"
        with pytest.raises(SystemExit):  # --queue is required
            build_parser().parse_args(["worker"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "cva6" in output
        assert "mabfuzz:exp3" in output
        assert "CWE-1281" in output

    def test_fuzz_small_campaign(self, capsys, tmp_path):
        output_file = tmp_path / "fuzz.txt"
        code = main(["fuzz", "--processor", "rocket", "--fuzzer", "thehuzz",
                     "--tests", "8", "--seeds", "2", "--output", str(output_file)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "thehuzz on rocket" in printed
        assert output_file.read_text().strip() in printed

    def test_ablation_small(self, capsys):
        code = main(["ablation", "arms", "--tests", "6", "--trials", "1",
                     "--seeds", "2", "--mutants", "2"])
        assert code == 0
        assert "num_arms" in capsys.readouterr().out

    def test_ablation_parallel_matches_serial(self, capsys, tmp_path):
        common = ["ablation", "arms", "--tests", "6", "--trials", "1",
                  "--seeds", "2", "--mutants", "2"]
        assert main(common) == 0
        serial_out = capsys.readouterr().out
        assert main(common + ["--workers", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert parallel_out == serial_out

    def test_ablation_resume_journal(self, capsys, tmp_path):
        journal = tmp_path / "ablation.jsonl"
        common = ["ablation", "arms", "--tests", "6", "--trials", "1",
                  "--seeds", "2", "--mutants", "2", "--resume", str(journal)]
        assert main(common) == 0
        first = capsys.readouterr()
        assert journal.exists()
        assert main(common) == 0  # second run restores every trial
        second = capsys.readouterr()
        assert second.out == first.out
        assert "restored from checkpoint" in second.err


class TestTrapCommands:
    def test_fuzz_scenario_and_coverage_model_flags(self, capsys):
        code = main(["fuzz", "--processor", "rocket", "--fuzzer", "mabfuzz:ucb",
                     "--tests", "8", "--seeds", "2", "--scenario", "mixed",
                     "--coverage-model", "csr"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "csr transitions covered:" in printed

    def test_fuzz_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fuzz", "--scenario", "kernel"])

    def test_trapcov_parses_execution_flags(self):
        args = build_parser().parse_args(
            ["trapcov", "--tests", "6", "--workers", "2",
             "--scenarios", "user", "mixed"])
        assert args.workers == 2
        assert args.scenarios == ["user", "mixed"]

    def test_trapcov_small_run(self, capsys, tmp_path):
        output_file = tmp_path / "trapcov.txt"
        code = main(["trapcov", "--processors", "rocket", "--tests", "6",
                     "--trials", "1", "--seeds", "2", "--mutants", "2",
                     "--scenarios", "mixed", "--output", str(output_file)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "CSR transitions" in printed
        assert output_file.read_text().strip() in printed

    def test_trapcov_parallel_matches_serial(self, capsys):
        common = ["trapcov", "--processors", "rocket", "--tests", "6",
                  "--trials", "1", "--seeds", "2", "--mutants", "2",
                  "--scenarios", "user", "trap"]
        assert main(common) == 0
        serial_out = capsys.readouterr().out
        assert main(common + ["--workers", "2"]) == 0
        assert capsys.readouterr().out == serial_out


def _plan_file(tmp_path):
    """A loadable fault plan (``--fault-plan`` loads it while parsing)."""
    path = tmp_path / "plan.json"
    path.write_text('{"rules": []}')
    return str(path)


class TestServiceFlags:
    def test_fleet_and_telemetry_flags_parse(self, tmp_path):
        plan = _plan_file(tmp_path)
        args = build_parser().parse_args(
            ["report", "--backend", "distributed", "--queue", "spool",
             "--spawn-workers", "2", "--worker-hosts", "node1", "node2",
             "--crash-loop-budget", "5", "--worker-fault-plan", plan,
             "--telemetry", "tcp:127.0.0.1:9900",
             "--telemetry-spill", "spill.ndjson"])
        assert args.spawn_workers == 2
        assert args.worker_hosts == ["node1", "node2"]
        assert args.crash_loop_budget == 5
        assert args.worker_fault_plan == plan
        assert args.telemetry == "tcp:127.0.0.1:9900"
        assert args.telemetry_spill == "spill.ndjson"

    def test_fleet_flags_require_distributed_backend(self):
        with pytest.raises(SystemExit, match="--backend distributed"):
            main(["report", "--spawn-workers", "2"])

    def test_fault_plan_requires_a_fleet(self, tmp_path):
        with pytest.raises(SystemExit, match="--spawn-workers"):
            main(["report", "--backend", "distributed", "--queue", "spool",
                  "--worker-fault-plan", _plan_file(tmp_path)])

    def test_telemetry_spill_requires_telemetry(self):
        with pytest.raises(SystemExit, match="--telemetry-spill requires"):
            main(["report", "--telemetry-spill", "spill.ndjson"])

    def test_bad_telemetry_spec_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["report", "--telemetry", "tcp:nohost"])
        assert exit_info.value.code == 2
        assert "expected tcp:HOST:PORT" in capsys.readouterr().err

    def test_telemetry_serve_parses(self):
        args = build_parser().parse_args(
            ["telemetry", "serve", "--host", "0.0.0.0", "--port", "9900",
             "--log", "events.ndjson"])
        assert args.action == "serve"
        assert (args.host, args.port, args.log) == (
            "0.0.0.0", 9900, "events.ndjson")


class TestDeadletterCommand:
    def _quarantine(self, tmp_path, task_id="run-000001", payload=None):
        from repro.exec import SpoolQueue

        queue = SpoolQueue(str(tmp_path / "spool")).ensure()
        if payload is None:
            payload = {"kind": "batch", "attempts": 2, "max_attempts": 3,
                       "tasks": [[0, 0], [0, 1]]}
        queue.quarantine(task_id, payload=payload, attempts=2,
                         error="worker died holding the claim")
        return queue

    def test_list_empty(self, capsys, tmp_path):
        from repro.exec import SpoolQueue

        SpoolQueue(str(tmp_path / "spool")).ensure()
        assert main(["deadletter", "list", "--queue",
                     str(tmp_path / "spool")]) == 0
        assert "is empty" in capsys.readouterr().out

    def test_list_shows_summary_lines(self, capsys, tmp_path):
        queue = self._quarantine(tmp_path)
        assert main(["deadletter", "list", "--queue", queue.root]) == 0
        output = capsys.readouterr().out
        assert "1 quarantined batch(es)" in output
        assert "run-000001: attempts=2 trials=2" in output
        assert "worker died holding the claim" in output

    def test_show_dumps_the_record(self, capsys, tmp_path):
        import json

        queue = self._quarantine(tmp_path)
        assert main(["deadletter", "show", "run-000001",
                     "--queue", queue.root]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["error"] == "worker died holding the claim"
        assert record["payload"]["kind"] == "batch"

    def test_requeue_restores_a_fresh_envelope(self, capsys, tmp_path):
        queue = self._quarantine(tmp_path)
        assert main(["deadletter", "requeue", "run-000001",
                     "--queue", queue.root]) == 0
        assert "requeued run-000001" in capsys.readouterr().out
        assert queue.deadletter_ids() == []
        claim = queue.claim("w0")
        assert claim is not None
        assert claim.task_id == "run-000001"
        assert claim.payload["attempts"] == 0  # fresh retry envelope
        assert claim.payload["max_attempts"] == 3  # original budget kept

    def test_requeue_max_attempts_override(self, tmp_path):
        queue = self._quarantine(tmp_path)
        assert main(["deadletter", "requeue", "run-000001", "--queue",
                     queue.root, "--max-attempts", "9"]) == 0
        assert queue.claim("w0").payload["max_attempts"] == 9

    def test_requeue_refuses_non_batch_payloads(self, tmp_path):
        queue = self._quarantine(tmp_path, payload={"kind": "mystery"})
        with pytest.raises(SystemExit, match="refusing to requeue"):
            main(["deadletter", "requeue", "run-000001",
                  "--queue", queue.root])
        assert queue.deadletter_ids() == ["run-000001"]  # record untouched

    def test_discard_with_all(self, capsys, tmp_path):
        queue = self._quarantine(tmp_path)
        self._quarantine(tmp_path, task_id="run-000002")
        assert main(["deadletter", "discard", "--all",
                     "--queue", queue.root]) == 0
        assert queue.deadletter_ids() == []

    def test_mutating_actions_require_a_target(self, tmp_path):
        queue = self._quarantine(tmp_path)
        with pytest.raises(SystemExit, match="requires TASK_ID or --all"):
            main(["deadletter", "requeue", "--queue", queue.root])

    def test_unknown_task_id_rejected(self, tmp_path):
        queue = self._quarantine(tmp_path)
        with pytest.raises(SystemExit, match="no deadletter record"):
            main(["deadletter", "show", "run-999999", "--queue", queue.root])
