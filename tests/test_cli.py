"""Tests for the command-line front end (repro.cli)."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture()
def verilog_file(tmp_path):
    path = tmp_path / "dut.v"
    path.write_text(
        "module m(input a, output y);\n  assign y = ~a;\nendmodule\n"
    )
    return str(path)


@pytest.fixture()
def bench_file(tmp_path):
    path = tmp_path / "tb.v"
    path.write_text(
        "module tb;\n"
        "  reg a; wire y;\n"
        "  initial begin a = 0; #1 "
        '$display("y=%b", y); $finish; end\n'
        "  assign y = ~a;\n"
        "endmodule\n"
    )
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_defaults(self):
        args = build_parser().parse_args(["evaluate"])
        assert args.model == "codegen-16b"
        assert args.n == 10
        assert args.backend == "zoo"
        assert args.workers == 1

    def test_backend_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["evaluate", "--backend", "psychic"])

    def test_sweep_flags(self):
        args = build_parser().parse_args([
            "sweep", "--models", "a,b", "--workers", "4",
            "--backend", "stub", "--export", "out.json",
        ])
        assert args.models == "a,b"
        assert args.workers == 4
        assert args.backend == "stub"
        assert args.export == "out.json"
        assert args.executor == "thread"
        assert args.shards == 1
        assert args.shard_index is None
        assert args.retries == 0

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8076
        assert args.backend == "zoo"

    @pytest.mark.parametrize("argv", [
        ["serve", "--aio"], ["coordinate", "--shards", "2", "--aio"],
        ["work", "--url", "http://h:1", "--aio"],
        ["work", "--url", "http://h:1", "--max-leases", "2"],
    ])
    def test_no_command_takes_an_asyncio_switch(self, argv):
        # one HTTP server and one worker; async fan-out is an executor
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    def test_executor_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--executor", "psychic"])

    def test_merge_requires_files(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["merge"])


class TestProblems:
    def test_lists_all_17(self, capsys):
        assert main(["problems"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 17
        assert "ABRO FSM" in out

    def test_prompt_levels(self, capsys):
        assert main(["prompt", "6", "--level", "L"]) == 0
        low = capsys.readouterr().out
        assert main(["prompt", "6", "--level", "H"]) == 0
        high = capsys.readouterr().out
        assert high.startswith(low.rstrip("\n")[: len(low) // 2])
        assert len(high) > len(low)


class TestCompileAndSimulate:
    def test_compile_ok(self, capsys, verilog_file):
        assert main(["compile", verilog_file]) == 0
        assert "OK" in capsys.readouterr().out

    def test_compile_failure_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.v"
        bad.write_text("module m(input a; endmodule")
        assert main(["compile", str(bad)]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_simulate_prints_output(self, capsys, bench_file):
        assert main(["simulate", bench_file, "--top", "tb"]) == 0
        out = capsys.readouterr().out
        assert "y=1" in out
        assert "finished=True" in out

    def test_simulate_writes_vcd(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        source = tmp_path / "wave_tb.v"
        source.write_text(
            "module tb; reg c;\n"
            "initial begin $dumpfile(\"dump.vcd\"); $dumpvars;\n"
            "c = 0; #5 c = 1; #1 $finish; end\nendmodule\n"
        )
        assert main(["simulate", str(source), "--top", "tb"]) == 0
        assert (tmp_path / "dump.vcd").exists()
        assert "$enddefinitions" in (tmp_path / "dump.vcd").read_text()


class TestLint:
    def test_clean_file_exit_zero(self, capsys, verilog_file):
        assert main(["lint", verilog_file]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_two(self, capsys, tmp_path):
        path = tmp_path / "warn.v"
        path.write_text(
            "module m(input a, output z);\n  wire ghost;\nendmodule\n"
        )
        assert main(["lint", str(path)]) == 2
        out = capsys.readouterr().out
        assert "undriven" in out
        assert "unused-signal" in out


class TestEvaluateAndCorpus:
    def test_evaluate_small(self, capsys):
        code = main([
            "evaluate", "--model", "codegen-6b", "--ft",
            "--n", "2", "--temperature", "0.1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "overall" in out
        assert out.count("P") >= 17

    def test_corpus_stats(self, capsys):
        assert main(["corpus", "--repos", "10"]) == 0
        out = capsys.readouterr().out
        assert "queried" in out
        assert "files" in out

    def test_evaluate_stub_backend_with_workers(self, capsys):
        code = main([
            "evaluate", "--backend", "stub-canonical",
            "--n", "2", "--workers", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "overall 34/34" in out
        assert "backend=stub" in out
        assert "workers=2" in out
        assert "cache=" in out

    def test_evaluate_all_jobs_failed_exits_nonzero(self, capsys):
        # http backend has no transport configured: every job fails
        assert main(["evaluate", "--backend", "http", "--n", "1"]) == 1
        assert "failed" in capsys.readouterr().out

    def test_evaluate_zero_workers_rejected(self):
        with pytest.raises(SystemExit):
            main(["evaluate", "--workers", "0"])

    def test_evaluate_ft_rejected_on_non_zoo_backend(self, capsys):
        assert main(["evaluate", "--backend", "stub", "--ft"]) == 2
        assert "--ft" in capsys.readouterr().out

    def test_evaluate_unknown_model_on_non_zoo_backend(self, capsys):
        code = main(["evaluate", "--backend", "stub", "--model", "gpt-9"])
        assert code == 2
        assert "does not serve" in capsys.readouterr().out

    def test_sweep_bad_inputs_exit_two(self, capsys):
        assert main(["sweep", "--levels", "Q"]) == 2
        assert "unknown level" in capsys.readouterr().out
        assert main(["sweep", "--problems", "99", "--n", "1"]) == 2
        assert "unknown problem" in capsys.readouterr().out
        assert main(["sweep", "--export", "x.parquet", "--n", "1"]) == 2
        assert ".json or .csv" in capsys.readouterr().out

    def test_evaluate_workers_match_serial(self, capsys):
        argv = ["evaluate", "--model", "codegen-6b", "--ft", "--n", "2"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--workers", "4"]) == 0
        parallel = capsys.readouterr().out
        # identical per-problem verdicts regardless of pool width
        assert [l for l in serial.splitlines() if l.startswith("P")] == [
            l for l in parallel.splitlines() if l.startswith("P")
        ]


class TestSweepCommand:
    def test_sweep_runs_and_reports_skips(self, capsys):
        code = main([
            "sweep", "--models", "codegen-2b-ft,j1-large-7b-ft",
            "--problems", "1,2", "--temperatures", "0.1",
            "--n", "2,25", "--levels", "L", "--workers", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "planned 6 jobs" in out
        assert "2 skipped" in out
        assert "n=25" in out
        assert "pass rate" in out
        assert "workers=4" in out

    def test_sweep_shard_flags_validated(self, capsys):
        assert main(["sweep", "--shards", "2", "--n", "1"]) == 2
        assert "--shard-index" in capsys.readouterr().out
        assert main([
            "sweep", "--shards", "2", "--shard-index", "2", "--n", "1",
        ]) == 2
        assert "0..1" in capsys.readouterr().out
        assert main([
            "sweep", "--shards", "2", "--shard-index", "-1", "--n", "1",
        ]) == 2
        assert "0..1" in capsys.readouterr().out

    def test_shard_export_extension_checked_before_running(self, capsys):
        code = main([
            "sweep", "--shards", "2", "--shard-index", "0", "--n", "1",
            "--export", "out.csv",
        ])
        assert code == 2
        out = capsys.readouterr().out
        assert "must end in .json" in out
        assert "planned" not in out  # rejected before any work ran

    def test_url_rejected_for_local_backends(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--backend", "stub", "--url", "http://x", "--n", "1"])
        assert "--url" in capsys.readouterr().out
        # evaluate's ad-hoc zoo path must reject it too, not ignore it
        with pytest.raises(SystemExit):
            main(["evaluate", "--url", "http://x", "--n", "1"])
        assert "--url" in capsys.readouterr().out

    def test_evaluate_honors_executor_flag(self, capsys):
        code = main([
            "evaluate", "--model", "codegen-6b", "--ft", "--n", "2",
            "--executor", "process", "--workers", "2",
        ])
        assert code == 0
        assert "overall" in capsys.readouterr().out

    def test_shard_merge_round_trip(self, capsys, tmp_path):
        base = [
            "sweep", "--backend", "stub", "--problems", "1,2,3",
            "--temperatures", "0.1", "--n", "2", "--levels", "L",
        ]
        paths = []
        for index in range(2):
            path = str(tmp_path / f"shard{index}.json")
            code = main(base + [
                "--shards", "2", "--shard-index", str(index),
                "--export", path,
            ])
            assert code == 0
            paths.append(path)
        out = capsys.readouterr().out
        assert "shard 1/2" in out and "shard 2/2" in out

        merged = str(tmp_path / "merged.json")
        assert main(["merge", *paths, "--export", merged]) == 0
        out = capsys.readouterr().out
        assert "merged 2 shards: 6 records" in out

        serial = str(tmp_path / "serial.json")
        assert main(base + ["--export", serial]) == 0
        import json

        assert json.load(open(merged)) == json.load(open(serial))

    def test_merge_full_export(self, capsys, tmp_path):
        path = str(tmp_path / "shard0.json")
        assert main([
            "sweep", "--backend", "stub", "--problems", "1",
            "--temperatures", "0.1", "--n", "1", "--levels", "L",
            "--shards", "1", "--shard-index", "0", "--export", path,
        ]) == 0
        capsys.readouterr()
        full = str(tmp_path / "full.json")
        assert main(["merge", path, "--export", full, "--full"]) == 0
        import json

        payload = json.load(open(full))
        assert set(payload) == {"records", "skipped", "errors", "stats"}

    def test_merge_bad_file_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["merge", str(bad)]) == 2
        assert "error" in capsys.readouterr().out

    def test_sweep_executor_and_retry_flags(self, capsys):
        code = main([
            "sweep", "--backend", "stub-canonical", "--problems", "1,2",
            "--temperatures", "0.1", "--n", "2", "--levels", "L",
            "--executor", "process", "--workers", "2", "--retries", "1",
        ])
        assert code == 0
        assert "pass rate 1.000" in capsys.readouterr().out

    def test_sweep_json_export(self, capsys, tmp_path):
        path = tmp_path / "records.json"
        code = main([
            "sweep", "--backend", "stub", "--problems", "1",
            "--temperatures", "0.1", "--n", "2", "--levels", "L,M",
            "--export", str(path),
        ])
        assert code == 0
        assert f"wrote {path}" in capsys.readouterr().out
        import json

        records = json.loads(path.read_text())
        assert len(records) == 2 * 2  # levels x n
        assert records[0]["model"] == "stub"


class TestCoordinateAndWorkCommands:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["coordinate", "--shards", "2"])
        assert args.shards == 2
        assert args.lease_seconds == 300.0
        assert args.backend == "zoo"
        args = build_parser().parse_args(["work", "--url", "http://h:1"])
        assert args.backend == "zoo"
        assert args.poll_seconds == 0.5
        assert args.max_idle_polls is None

    def test_coordinate_requires_shards_or_lease_jobs(self, capsys):
        code = main(["coordinate"])
        assert code == 2
        assert "--shards" in capsys.readouterr().out
        # either flag alone satisfies the parser; a range cut needs
        # no shard count
        args = build_parser().parse_args(["coordinate", "--lease-jobs", "5"])
        assert args.shards is None and args.lease_jobs == 5

    @pytest.mark.parametrize("argv", [
        ["work", "--url", "http://h:1", "--poll-seconds", "-1"],
        ["work", "--url", "http://h:1", "--poll-seconds", "0"],
        ["work", "--url", "http://h:1", "--poll-seconds", "nan"],
        ["work", "--url", "http://h:1", "--max-idle-polls", "0"],
        ["coordinate", "--shards", "2", "--lease-seconds", "0"],
        ["coordinate", "--shards", "2", "--lease-seconds", "inf"],
        ["coordinate", "--shards", "2", "--poll-seconds", "-0.5"],
        ["top", "--url", "http://h:1", "--interval", "-1"],
        ["top", "--url", "http://h:1", "--interval", "0"],
        ["top", "--url", "http://h:1", "--interval", "nan"],
    ])
    def test_non_positive_intervals_rejected(self, argv, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert "must be" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["sweep", "--backend", "stub-canonical"],
        ["work", "--url", "http://127.0.0.1:1"],
    ])
    @pytest.mark.parametrize("flags", [
        ["--retries", "-1"],
        ["--retries", "1", "--backoff", "-1"],
        ["--retries", "1", "--backoff", "nan"],
        ["--retries", "1", "--backoff", "inf"],
        ["--repair-budget", "-3"],
    ])
    def test_negative_retry_and_repair_flags_rejected(
        self, command, flags, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(command + flags)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "must be" in err
        assert "Traceback" not in err

    def test_work_requires_url(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["work"])

    def test_store_flag_accepted_by_sweep(self, capsys, tmp_path):
        store = tmp_path / "verdicts"
        code = main([
            "sweep", "--backend", "stub-canonical", "--problems", "1",
            "--temperatures", "0.1", "--n", "2", "--levels", "L",
            "--store", str(store),
        ])
        assert code == 0
        assert any(store.glob("seg-*.jsonl"))

    def test_work_unreachable_coordinator_exits_two(self, capsys):
        code = main(["work", "--url", "http://127.0.0.1:9",
                     "--backend", "stub"])
        assert code == 2
        assert "cannot reach" in capsys.readouterr().out

    def test_work_drains_a_live_coordinator(self, capsys):
        from repro.api import Session
        from repro.eval import SweepConfig
        from repro.problems import PromptLevel

        config = SweepConfig(
            temperatures=(0.1,), completions_per_prompt=(2,),
            levels=(PromptLevel.LOW,), problem_numbers=(1, 2),
        )
        service = Session(backend="stub-canonical").coordinate(
            2, config, port=0
        )
        url = service.start()
        try:
            code = main(["work", "--url", url,
                         "--backend", "stub-canonical",
                         "--max-idle-polls", "20"])
        finally:
            service.stop()
        assert code == 0
        out = capsys.readouterr().out
        assert "2 units" in out
        assert service.coordinator.done
        assert len(service.coordinator.result().sweep) == 2 * 2

    def test_coordinate_end_to_end_with_cli_worker(self, capsys, tmp_path):
        import json
        import socket
        import threading
        import time

        from repro.api import Session
        from repro.backends import BackendError

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()

        merged_path = tmp_path / "merged.json"
        codes = []

        def coordinate():
            codes.append(main([
                "coordinate", "--shards", "2",
                "--backend", "stub-canonical",
                "--problems", "1,2", "--temperatures", "0.1",
                "--n", "2", "--levels", "L",
                "--port", str(port), "--poll-seconds", "0.02",
                "--linger-seconds", "0.1",
                "--export", str(merged_path),
            ]))

        thread = threading.Thread(target=coordinate)
        thread.start()
        url = f"http://127.0.0.1:{port}"
        summary = None
        for _ in range(200):  # wait for the coordinator to come up
            try:
                summary = Session(backend="stub-canonical").work(
                    url=url, max_idle_polls=50, poll_seconds=0.02
                )
                break
            except BackendError:
                time.sleep(0.05)
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert codes == [0]
        assert summary is not None and summary["shards"] == 2
        out = capsys.readouterr().out
        assert "merged 2 shards" in out
        records = json.loads(merged_path.read_text())
        # parity with a direct serial sweep export
        serial_path = tmp_path / "serial.json"
        assert main([
            "sweep", "--backend", "stub-canonical", "--problems", "1,2",
            "--temperatures", "0.1", "--n", "2", "--levels", "L",
            "--export", str(serial_path),
        ]) == 0
        assert records == json.loads(serial_path.read_text())


class TestStreamingAndStoreCLI:
    """Streaming and store surfaces: sweep --stream, coordinate
    --checkpoint, and the store pack/unpack command."""

    def test_new_flags_parse(self):
        args = build_parser().parse_args(
            ["sweep", "--stream", "--url", "http://h:1"]
        )
        assert args.stream and args.url == "http://h:1"
        args = build_parser().parse_args([
            "coordinate", "--shards", "2",
            "--checkpoint", "state.json", "--checkpoint-every", "3",
        ])
        assert args.checkpoint == "state.json"
        assert args.checkpoint_every == 3
        args = build_parser().parse_args(["store", "pack", "dir"])
        assert args.action == "pack" and args.dir == "dir"
        args = build_parser().parse_args(
            ["sweep", "--executor", "process", "--workers", "8"]
        )
        assert args.executor == "process"

    def test_stream_requires_url(self, capsys):
        code = main(["sweep", "--stream"])
        assert code == 2
        assert "--url" in capsys.readouterr().out

    def test_stream_rejects_shards(self, capsys):
        code = main(["sweep", "--stream", "--url", "http://h:1",
                     "--shards", "2", "--shard-index", "0"])
        assert code == 2
        assert "--shards" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["sweep", "--backend", "stub-canonical"],
        ["work", "--url", "http://h:1"],
    ])
    def test_sweep_and_work_reject_executor_async(self, capsys, argv):
        # one in-process executor: threads hide backend latency
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--executor", "async", "--workers", "4"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'async'" in capsys.readouterr().err

    def test_streamed_sweep_parity_over_live_service(
        self, capsys, tmp_path
    ):
        import json

        from repro.api import Session

        service = Session(backend="stub-canonical").serve(port=0)
        url = service.start()
        streamed_path = tmp_path / "streamed.json"
        serial_path = tmp_path / "serial.json"
        try:
            code = main([
                "sweep", "--stream", "--url", url,
                "--problems", "1,2", "--temperatures", "0.1",
                "--n", "2", "--levels", "L",
                "--export", str(streamed_path),
            ])
        finally:
            service.stop()
        assert code == 0
        out = capsys.readouterr().out
        assert "records" in out and "pass rate" in out
        assert main([
            "sweep", "--backend", "stub-canonical",
            "--problems", "1,2", "--temperatures", "0.1",
            "--n", "2", "--levels", "L",
            "--export", str(serial_path),
        ]) == 0
        assert json.load(open(streamed_path)) == json.load(open(serial_path))

    def test_coordinate_resumes_from_complete_checkpoint(
        self, capsys, tmp_path
    ):
        import json

        from repro.api import Session
        from repro.eval import SweepConfig
        from repro.eval.export import sweep_result_to_dict
        from repro.problems import PromptLevel
        from repro.service import ShardCoordinator, save_checkpoint
        from repro.service.sharding import shard_from_dict

        config = SweepConfig(
            temperatures=(0.1,), completions_per_prompt=(2,),
            levels=(PromptLevel.LOW,), problem_numbers=(1, 2),
        )
        session = Session(backend="stub-canonical")
        coordinator = ShardCoordinator(session.plan_shards(2, config))
        while not coordinator.done:
            lease = coordinator.next_shard("pre-crash-worker")
            shard = shard_from_dict(lease["shard"])
            coordinator.submit_result(
                lease["lease_id"],
                sweep_result_to_dict(session.run_plan(shard.plan)),
            )
        checkpoint = tmp_path / "coordinator.json"
        save_checkpoint(coordinator, str(checkpoint))

        # a restarted coordinate run needs no workers at all: every
        # shard is already merged in the checkpoint
        merged_path = tmp_path / "merged.json"
        code = main([
            "coordinate", "--shards", "2",
            "--backend", "stub-canonical",
            "--problems", "1,2", "--temperatures", "0.1",
            "--n", "2", "--levels", "L",
            "--port", "0", "--linger-seconds", "0",
            "--checkpoint", str(checkpoint),
            "--export", str(merged_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "resumed from" in out
        serial = session.run_sweep(config)
        from repro.eval.export import sweep_to_json

        assert json.load(open(merged_path)) == json.loads(
            sweep_to_json(serial.sweep)
        )

    def test_coordinate_refuses_a_lease_jobs_checkpoint(
        self, capsys, tmp_path
    ):
        import json

        from repro.api import Session
        from repro.eval import SweepConfig
        from repro.problems import PromptLevel
        from repro.service import ShardCoordinator

        # a coordinator that carved job ranges itself checkpointed its
        # split plus the range size
        config = SweepConfig(
            temperatures=(0.1,), completions_per_prompt=(2,),
            levels=(PromptLevel.LOW,), problem_numbers=(1, 2),
        )
        state = ShardCoordinator(
            Session(backend="stub-canonical").plan_shards(2, config)
        ).state_to_dict()
        state["lease_jobs"] = 3
        checkpoint = tmp_path / "coordinator.json"
        checkpoint.write_text(json.dumps(state))
        code = main([
            "coordinate", "--lease-jobs", "3",
            "--backend", "stub-canonical",
            "--problems", "1,2", "--temperatures", "0.1",
            "--n", "2", "--levels", "L",
            "--port", "0", "--linger-seconds", "0",
            "--checkpoint", str(checkpoint),
        ])
        assert code == 2
        out = capsys.readouterr().out
        assert "unreadable checkpoint" in out and "lease_jobs" in out

    def test_store_pack_unpack_info(self, capsys, tmp_path):
        store_dir = tmp_path / "verdicts"
        assert main([
            "sweep", "--backend", "stub-canonical", "--problems", "1",
            "--temperatures", "0.1", "--n", "2", "--levels", "L",
            "--store", str(store_dir),
        ]) == 0
        capsys.readouterr()
        assert main(["store", "info", str(store_dir)]) == 0
        assert "entries" in capsys.readouterr().out
        assert main(["store", "pack", str(store_dir)]) == 0
        assert "packed" in capsys.readouterr().out
        assert not list(store_dir.glob("*.json"))  # files folded away
        # a packed store still serves a warm start
        assert main([
            "sweep", "--backend", "stub-canonical", "--problems", "1",
            "--temperatures", "0.1", "--n", "2", "--levels", "L",
            "--store", str(store_dir),
        ]) == 0
        assert main(["store", "unpack", str(store_dir)]) == 0
        capsys.readouterr()
        assert list(store_dir.glob("*.json"))

    def test_store_missing_dir_exits_two(self, capsys, tmp_path):
        code = main(["store", "pack", str(tmp_path / "absent")])
        assert code == 2
        assert "not a verdict store" in capsys.readouterr().out
