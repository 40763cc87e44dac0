"""Tests for the observability layer (repro.obs): metrics registry,
span tracing + trace files, stage timers, retry timing, stream frames,
/metrics routes, the simulator profiler, fleet telemetry, the live
dashboard, and the ``repro stats``/``hotspots``/``top`` CLI."""

import json
import urllib.request

import pytest

from repro.api import Session
from repro.backends import BackendError, StubBackend
from repro.cli import main
from repro.eval import Evaluator, RetryPolicy, SweepConfig, SweepPlanner
from repro.eval.export import error_from_dict, error_to_dict
from repro.eval.jobs import JobError, run_job_with_retry
from repro.obs import (
    REGISTRY,
    STAGES,
    Histogram,
    MetricsRegistry,
    SimProfiler,
    TelemetryHub,
    TelemetryPusher,
    TraceFormatError,
    TraceWriter,
    current_tags,
    expand_trace_paths,
    job_tags,
    load_trace,
    maybe_sim_profiler,
    observe_stage,
    profiling,
    profiling_enabled,
    record_span,
    render_fleet_prometheus,
    render_hotspots,
    render_prometheus,
    render_stats,
    reset_registry,
    span,
    summarize_traces,
    tracing_active,
)
from repro.obs.profile import construct_path, profile_frame, record_profile
from repro.problems import PromptLevel

TINY = SweepConfig(
    temperatures=(0.1,),
    completions_per_prompt=(2,),
    levels=(PromptLevel.LOW,),
    problem_numbers=(1, 2),
)


@pytest.fixture(autouse=True)
def _clean_registry():
    """Each test sees a fresh process registry (and leaves one behind)."""
    reset_registry()
    yield
    reset_registry()


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counters_accumulate_per_label_set(self):
        reg = MetricsRegistry()
        reg.inc("units", worker="a")
        reg.inc("units", 2.0, worker="a")
        reg.inc("units", worker="b")
        assert reg.counter_value("units", worker="a") == 3.0
        assert reg.counter_value("units", worker="b") == 1.0
        assert reg.counter_value("units", worker="nope") == 0.0

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.set_gauge("queue_depth", 5)
        reg.set_gauge("queue_depth", 2)
        snapshot = reg.snapshot()
        assert snapshot["gauges"] == [
            {"name": "queue_depth", "labels": {}, "value": 2.0}
        ]

    def test_histogram_percentiles_within_bucket_error(self):
        hist = Histogram()
        for ms in range(1, 1001):
            hist.observe(ms / 1000.0)
        snap = hist.snapshot()
        assert snap["count"] == 1000
        assert snap["min"] == 0.001 and snap["max"] == 1.0
        # log buckets are ~9.6% wide; quantiles land within one bucket
        assert snap["p50"] == pytest.approx(0.5, rel=0.11)
        assert snap["p95"] == pytest.approx(0.95, rel=0.11)
        assert snap["p99"] == pytest.approx(0.99, rel=0.11)

    def test_histogram_single_sample_is_exact_range(self):
        hist = Histogram()
        hist.observe(0.25)
        snap = hist.snapshot()
        # quantiles clamp to [min, max], so one sample answers itself
        assert snap["p50"] == snap["p99"] == 0.25

    def test_empty_histogram_snapshot_is_zeroes(self):
        reg = MetricsRegistry()
        assert reg.histogram_snapshot("never_observed")["count"] == 0

    def test_snapshot_shape_sorted_and_json_ready(self):
        reg = MetricsRegistry()
        reg.inc("b_counter")
        reg.inc("a_counter", stage="sim")
        reg.observe("latency", 0.5, stage="parse")
        snap = reg.snapshot()
        assert [row["name"] for row in snap["counters"]] == [
            "a_counter", "b_counter",
        ]
        hist_row = snap["histograms"][0]
        assert hist_row["labels"] == {"stage": "parse"}
        assert {"count", "sum", "min", "max", "p50", "p95", "p99"} <= set(
            hist_row
        )
        json.dumps(snap)  # must be JSON-serializable as-is

    def test_reset_clears_everything(self):
        reg = MetricsRegistry()
        reg.inc("x")
        reg.set_gauge("y", 1)
        reg.observe("z", 1.0)
        reg.reset()
        assert reg.snapshot() == {
            "counters": [], "gauges": [], "histograms": [],
        }


class TestPrometheusRendering:
    def test_counters_gauges_histograms_render(self):
        reg = MetricsRegistry()
        reg.inc("http_requests", 3, route="/health")
        reg.set_gauge("workers", 2)
        reg.observe("job_seconds", 0.5)
        text = render_prometheus(reg)
        assert "# TYPE http_requests counter" in text
        assert 'http_requests{route="/health"} 3.0' in text
        assert "# TYPE workers gauge" in text
        assert "# TYPE job_seconds summary" in text
        assert 'job_seconds{quantile="0.5"}' in text
        assert "job_seconds_count 1" in text
        assert "job_seconds_sum 0.5" in text
        assert text.endswith("\n")

    def test_output_stable_for_same_state(self):
        reg = MetricsRegistry()
        reg.inc("c", worker="b")
        reg.inc("c", worker="a")
        assert render_prometheus(reg) == render_prometheus(reg)
        # label sets render sorted, insertion order does not leak
        lines = render_prometheus(reg).splitlines()
        assert lines[1] == 'c{worker="a"} 1.0'

    def test_defaults_to_process_registry(self):
        REGISTRY.inc("process_wide_counter")
        assert "process_wide_counter 1.0" in render_prometheus()


# ----------------------------------------------------------------------
# Span tracing + trace files
# ----------------------------------------------------------------------
class TestSpans:
    def test_record_span_noop_without_sinks(self):
        assert not tracing_active()
        record_span("orphan", 0.1)  # must not raise or buffer anywhere

    def test_sink_receives_span_with_merged_tags(self):
        seen = []
        with TraceWriterSpy(seen):
            with job_tags(model="m1", problem=3):
                record_span("sim", 0.02, problem=4, cycles=10)
        assert len(seen) == 1
        frame = seen[0]
        assert frame["type"] == "span" and frame["name"] == "sim"
        assert frame["dur"] == pytest.approx(0.02)
        # explicit tags win over the ambient job context
        assert frame["tags"] == {"model": "m1", "problem": 4, "cycles": 10}

    def test_job_tags_nest_and_restore(self):
        assert current_tags() == {}
        with job_tags(model="m", problem=1):
            with job_tags(problem=2, level="L"):
                assert current_tags() == {
                    "model": "m", "problem": 2, "level": "L",
                }
            assert current_tags() == {"model": "m", "problem": 1}
        assert current_tags() == {}

    def test_span_context_manager_times_body(self):
        seen = []
        with TraceWriterSpy(seen):
            with span("elaborate", problem=7):
                pass
        assert seen[0]["name"] == "elaborate"
        assert seen[0]["dur"] >= 0.0
        assert seen[0]["tags"] == {"problem": 7}

    def test_span_context_manager_free_without_sinks(self):
        with span("nothing"):  # no sink installed: must not record
            pass
        assert not tracing_active()


class TraceWriterSpy:
    """A plain list-collecting sink with the TraceWriter install dance."""

    def __init__(self, frames):
        self.frames = frames

    def __call__(self, frame):
        self.frames.append(frame)

    def __enter__(self):
        from repro.obs import add_sink

        add_sink(self)
        return self

    def __exit__(self, *exc_info):
        from repro.obs import remove_sink

        remove_sink(self)


class TestTraceWriter:
    def test_file_layout_meta_spans_metrics(self, tmp_path):
        path = tmp_path / "run.ndjson"
        REGISTRY.inc("counted_once")
        with TraceWriter(str(path), tags={"worker": "w0"}):
            assert tracing_active()
            record_span("job", 0.5, model="m", problem=1)
            record_span("generate", 0.4)
        assert not tracing_active()
        frames = load_trace(str(path))
        assert [f["type"] for f in frames] == [
            "meta", "span", "span", "metrics",
        ]
        meta = frames[0]
        assert meta["version"] == 1
        assert meta["clock"] == "monotonic"
        assert meta["tags"] == {"worker": "w0"}
        # writer default tags live in the header only, not on spans
        assert frames[1]["tags"] == {"model": "m", "problem": 1}
        names = [row["name"] for row in frames[3]["metrics"]["counters"]]
        assert "counted_once" in names

    def test_every_line_is_one_json_object(self, tmp_path):
        path = tmp_path / "run.ndjson"
        with TraceWriter(str(path)):
            record_span("sim", 0.001, note='quote" and \\ backslash')
        for line in path.read_text().splitlines():
            assert isinstance(json.loads(line), dict)

    def test_close_is_idempotent(self, tmp_path):
        path = tmp_path / "run.ndjson"
        writer = TraceWriter(str(path))
        writer.close()
        writer.close()  # second close must not append or raise
        frames = load_trace(str(path))
        assert [f["type"] for f in frames] == ["meta", "metrics"]


# ----------------------------------------------------------------------
# Always-on stage timers + retry timing
# ----------------------------------------------------------------------
class TestStageTimers:
    def test_evaluation_feeds_stage_histograms(self):
        session = Session(backend="zoo")
        session.run_plan(session.plan(TINY, models=["codegen-2b-ft"]))
        snap = REGISTRY.snapshot()
        stages_seen = {
            row["labels"]["stage"]
            for row in snap["histograms"]
            if row["name"] == "stage_seconds"
        }
        # generate always runs; parse fires for every completion that
        # produced text; sim/testbench require a parse that elaborates
        assert "generate" in stages_seen
        assert "parse" in stages_seen
        assert stages_seen <= set(STAGES)
        job_rows = [
            row for row in snap["histograms"] if row["name"] == "job_seconds"
        ]
        assert job_rows and job_rows[0]["count"] == 2  # one job per problem

    def test_observe_stage_spans_only_when_tracing(self):
        seen = []
        observe_stage("parse", 0.01, problem=1)
        with TraceWriterSpy(seen):
            observe_stage("parse", 0.02, problem=1)
        assert len(seen) == 1  # first call predates the sink
        assert seen[0]["name"] == "parse"
        assert (
            REGISTRY.histogram_snapshot(
                "stage_seconds", stage="parse", problem=1
            )["count"]
            == 2
        )


class TestRetryTiming:
    def _flaky(self, failures):
        class Flaky(StubBackend):
            calls = 0

            def generate(self, model, prompt, config):
                Flaky.calls += 1
                if Flaky.calls <= failures:
                    raise BackendError(f"transient #{Flaky.calls}")
                return super().generate(model, prompt, config)

        return Flaky()

    def test_success_after_retries_schedules_backoff(self):
        backend = self._flaky(failures=2)
        job = SweepPlanner(backend).plan(TINY).jobs[0]
        slept = []
        records, failure, attempts = run_job_with_retry(
            backend,
            Evaluator(),
            job,
            retry=RetryPolicy(max_attempts=3, backoff_seconds=0.5),
            sleep=slept.append,
        )
        assert failure is None and attempts == 3
        assert len(records) == job.n
        assert slept == [0.5, 1.0]  # doubling backoff, deterministic

    def test_exhausted_failure_carries_attempt_timings(self):
        backend = self._flaky(failures=99)
        job = SweepPlanner(backend).plan(TINY).jobs[0]
        records, failure, attempts = run_job_with_retry(
            backend,
            Evaluator(),
            job,
            retry=RetryPolicy(max_attempts=3, backoff_seconds=0.25),
            sleep=lambda _s: None,
        )
        assert records == [] and attempts == 3
        assert len(failure.attempt_seconds) == 3
        assert all(s >= 0.0 for s in failure.attempt_seconds)
        assert failure.backoff_seconds == pytest.approx(0.25 + 0.5)

    def test_timing_fields_excluded_from_equality(self):
        job = SweepPlanner(StubBackend()).plan(TINY).jobs[0]
        fast = JobError(job=job, error="boom", attempts=2,
                        attempt_seconds=(0.1, 0.2), backoff_seconds=0.5)
        slow = JobError(job=job, error="boom", attempts=2,
                        attempt_seconds=(9.0, 9.0), backoff_seconds=99.0)
        # the parity invariant: wall-clock metadata never breaks equality
        assert fast == slow
        assert fast != JobError(job=job, error="boom", attempts=3)

    def test_export_roundtrip_and_legacy_dicts(self):
        job = SweepPlanner(StubBackend()).plan(TINY).jobs[0]
        error = JobError(job=job, error="boom", attempts=2,
                         attempt_seconds=(0.125, 0.25), backoff_seconds=1.5)
        row = error_to_dict(error)
        back = error_from_dict(row)
        assert back == error
        assert back.attempt_seconds == (0.125, 0.25)
        assert back.backoff_seconds == 1.5
        # dicts written before the timing fields existed still load
        row.pop("attempt_seconds")
        row.pop("backoff_seconds")
        legacy = error_from_dict(row)
        assert legacy == error  # compare=False: equal despite defaults
        assert legacy.attempt_seconds == ()
        assert legacy.backoff_seconds == 0.0


# ----------------------------------------------------------------------
# Stream frames: metric/span events, strict vs lenient decode, parity
# ----------------------------------------------------------------------
class TestStreamFrames:
    def test_metric_and_span_frames_carry_t(self):
        from repro.service.aio.events import metric_frame, span_frame

        metric = metric_frame({"records_merged": 4})
        assert metric["event"] == "metric"
        assert metric["metrics"] == {"records_merged": 4}
        assert isinstance(metric["t"], float)

        frame = span_frame({"type": "span", "name": "sim", "t": 12.5,
                            "dur": 0.25, "tags": {"problem": 1}})
        assert frame["event"] == "span"
        assert "type" not in frame  # stream discriminator replaces it
        assert frame["t"] == 12.5 and frame["dur"] == 0.25

    def test_progress_and_attempt_frames_carry_t(self):
        from repro.service.aio.events import attempt_frame, progress_frame

        assert isinstance(progress_frame(1, 2, 3, 0)["t"], float)
        assert isinstance(
            attempt_frame({"model": "m", "problem": 1, "round": 0,
                           "verdict": "pass"})["t"],
            float,
        )

    def test_decode_frame_strict_rejects_unknown_event(self):
        from repro.service.aio.events import StreamProtocolError, decode_frame

        line = b'{"event":"hologram","x":1}'
        with pytest.raises(StreamProtocolError, match="unknown frame"):
            decode_frame(line)
        # lenient mode is the forward-compatibility path
        assert decode_frame(line, strict=False)["event"] == "hologram"

    def test_malformed_known_frames_fatal_in_both_modes(self):
        from repro.service.aio.events import StreamProtocolError, decode_frame

        for strict in (True, False):
            with pytest.raises(StreamProtocolError, match="missing"):
                decode_frame(b'{"event":"metric"}', strict=strict)
            with pytest.raises(StreamProtocolError, match="missing"):
                decode_frame(b'{"event":"span","name":"x"}', strict=strict)
            with pytest.raises(StreamProtocolError, match="not JSON"):
                decode_frame(b"{nope", strict=strict)
            with pytest.raises(StreamProtocolError, match="object"):
                decode_frame(b"[1,2]", strict=strict)
            with pytest.raises(StreamProtocolError, match="unknown"):
                decode_frame(b'{"no_event":1}', strict=strict)

    def test_decode_stream_passes_unknown_events_through(self):
        from repro.service.aio.events import decode_stream

        lines = [
            b'{"event":"metric","t":1.0,"metrics":{}}',
            b"",  # keep-alive
            b'{"event":"from_the_future","payload":1}',
            b'{"event":"span","name":"sim","dur":0.1}',
        ]
        events = [f["event"] for f in decode_stream(lines)]
        assert events == ["metric", "from_the_future", "span"]

    def test_assembly_ignores_observational_frames(self):
        """Interleaving metric/span frames anywhere in a stream must not
        change the reassembled result (the parity invariant)."""
        from repro.service.aio.events import (
            assemble_stream_result,
            metric_frame,
            result_to_frames,
            span_frame,
        )

        session = Session(backend="stub-canonical")
        plan = session.plan(TINY)
        result = session.run_plan(plan)
        frames = result_to_frames(plan, result)
        noisy = []
        for frame in frames:
            noisy.append(metric_frame({"records_merged": len(noisy)}))
            noisy.append(span_frame({"name": "sim", "dur": 0.01}))
            noisy.append(frame)
        rebuilt = assemble_stream_result(noisy)
        assert rebuilt.sweep.records == result.sweep.records
        assert rebuilt.errors == result.errors
        assert rebuilt.stats == result.stats


# ----------------------------------------------------------------------
# /metrics routes on both servers
# ----------------------------------------------------------------------
class TestMetricsRoutes:
    def test_service_app_metrics_json(self):
        from repro.service import ServiceApp

        REGISTRY.inc("route_test_counter")
        status, body = ServiceApp(Session(backend="zoo")).handle(
            "GET", "/metrics"
        )
        assert status == 200
        names = [row["name"] for row in body["metrics"]["counters"]]
        assert "route_test_counter" in names
        assert "coordinator" not in body  # none attached

    def test_service_app_metrics_prom_is_raw_text(self):
        from repro.service import ServiceApp
        from repro.service.server import RAW_TEXT_KEY

        REGISTRY.inc("route_test_counter")
        status, body = ServiceApp(Session(backend="zoo")).handle(
            "GET", "/metrics/prom"
        )
        assert status == 200
        assert body["content_type"] == "text/plain; version=0.0.4"
        assert "route_test_counter 1.0" in body[RAW_TEXT_KEY]

    @staticmethod
    def _fetch(url):
        with urllib.request.urlopen(url, timeout=5) as response:
            return (
                response.status,
                response.headers.get("Content-Type"),
                response.read().decode("utf-8"),
            )

    def test_routes_over_both_http_servers(self):
        """The stdlib and asyncio servers expose identical metrics
        routes: JSON snapshot at /metrics, Prometheus text at
        /metrics/prom with the exposition content type."""
        from repro.service import AsyncEvalService, EvalService

        REGISTRY.inc("served_counter", flavor="both")
        with EvalService(Session(backend="zoo"), port=0) as stdlib_svc, \
                AsyncEvalService(Session(backend="zoo"), port=0) as aio_svc:
            for url in (stdlib_svc.url, aio_svc.url):
                status, ctype, text = self._fetch(url + "/metrics")
                assert status == 200
                assert ctype.startswith("application/json")
                names = [
                    row["name"]
                    for row in json.loads(text)["metrics"]["counters"]
                ]
                assert "served_counter" in names

                status, ctype, text = self._fetch(url + "/metrics/prom")
                assert status == 200
                assert ctype == "text/plain; version=0.0.4"
                assert 'served_counter{flavor="both"} 1.0' in text
                assert "# TYPE served_counter counter" in text


# ----------------------------------------------------------------------
# Trace summarizer + repro stats CLI
# ----------------------------------------------------------------------
def write_trace(path, worker=None, jobs=2):
    """A small but complete trace file via the real writer."""
    tags = {"worker": worker} if worker else None
    with TraceWriter(str(path), tags=tags):
        for index in range(jobs):
            record_span("generate", 0.30, model="m", problem=index + 1)
            record_span("parse", 0.05, problem=index + 1)
            record_span("sim", 0.10, problem=index + 1)
            record_span("job", 0.50, t=float(index), model="m",
                        problem=index + 1)
        record_span("repair_attempt", 0.2, round=0, verdict="sim_fail")
        record_span("repair_attempt", 0.2, round=1, verdict="pass")


class TestTraceStats:
    def test_stage_split_and_job_percentiles(self, tmp_path):
        path = tmp_path / "a.ndjson"
        write_trace(path, jobs=4)
        summary = summarize_traces([str(path)])
        assert summary["stages"]["generate"]["count"] == 4
        assert summary["stages"]["generate"]["seconds"] == pytest.approx(1.2)
        total = summary["stage_seconds_total"]
        assert total == pytest.approx(4 * (0.30 + 0.05 + 0.10))
        assert summary["stages"]["generate"]["share"] == pytest.approx(
            1.2 / total
        )
        assert summary["jobs"]["count"] == 4
        assert summary["jobs"]["p50"] == pytest.approx(0.5)
        assert summary["jobs"]["p99"] == pytest.approx(0.5)
        assert summary["repair_attempts"] == {"sim_fail": 1, "pass": 1}

    def test_worker_attribution_from_meta_tags(self, tmp_path):
        """Multi-file merge: each file's meta-header worker tag labels
        its job spans; files without one fall back to a per-file id."""
        a, b, c = (tmp_path / name for name in ("a.nd", "b.nd", "c.nd"))
        write_trace(a, worker="w-alpha", jobs=3)
        write_trace(b, worker="w-beta", jobs=1)
        write_trace(c, worker=None, jobs=1)
        summary = summarize_traces([str(a), str(b), str(c)])
        workers = summary["workers"]
        assert workers["w-alpha"]["jobs"] == 3
        assert workers["w-beta"]["jobs"] == 1
        assert workers["file2"]["jobs"] == 1
        # wall clock spans first job start to last job end within a file
        assert workers["w-alpha"]["wall_seconds"] == pytest.approx(2.5)
        assert workers["w-alpha"]["jobs_per_second"] == pytest.approx(
            3 / 2.5
        )

    def test_malformed_lines_raise_with_location(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"type":"meta","version":1}\n{nope\n')
        with pytest.raises(TraceFormatError, match="bad.ndjson:2"):
            load_trace(str(path))

    def test_unknown_frame_type_rejected(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"type":"hologram"}\n')
        with pytest.raises(TraceFormatError, match="unknown frame type"):
            load_trace(str(path))

    def test_span_missing_dur_rejected(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"type":"span","name":"sim"}\n')
        with pytest.raises(TraceFormatError, match="missing dur"):
            load_trace(str(path))

    def test_empty_trace_rejected(self, tmp_path):
        path = tmp_path / "empty.ndjson"
        path.write_text("\n\n")
        with pytest.raises(TraceFormatError, match="empty trace"):
            load_trace(str(path))

    def test_render_stats_report_shape(self, tmp_path):
        path = tmp_path / "a.ndjson"
        write_trace(path, worker="w0")
        report = render_stats(summarize_traces([str(path)]))
        assert "stage" in report and "generate" in report
        assert "p95" in report
        assert "w0" in report
        assert "repair attempts: pass=1, sim_fail=1" in report


class TestStatsCli:
    def test_stats_happy_path(self, capsys, tmp_path):
        path = tmp_path / "run.ndjson"
        write_trace(path, worker="w0")
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "generate" in out and "w0" in out

    def test_stats_json_output(self, capsys, tmp_path):
        path = tmp_path / "run.ndjson"
        write_trace(path)
        assert main(["stats", str(path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["jobs"]["count"] == 2

    def test_stats_bad_file_exits_two(self, capsys, tmp_path):
        missing = tmp_path / "no-such.ndjson"
        assert main(["stats", str(missing)]) == 2
        assert "error" in capsys.readouterr().out
        bad = tmp_path / "bad.ndjson"
        bad.write_text("{nope\n")
        assert main(["stats", str(bad)]) == 2
        assert "not JSON" in capsys.readouterr().out

    def test_sweep_trace_flag_writes_valid_trace(self, capsys, tmp_path):
        trace = tmp_path / "sweep.ndjson"
        code = main([
            "sweep", "--backend", "stub-canonical", "--problems", "1,2",
            "--temperatures", "0.1", "--n", "2", "--levels", "L",
            "--trace", str(trace),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert f"wrote trace {trace}" in out
        frames = load_trace(str(trace))
        assert frames[0]["type"] == "meta"
        assert frames[0]["tags"]["command"] == "sweep"
        assert frames[-1]["type"] == "metrics"
        summary = summarize_traces([str(trace)])
        assert summary["jobs"]["count"] == 2  # one job per problem
        assert summary["stages"]["generate"]["count"] == 2
        assert not tracing_active()  # sink removed after the command

    def test_session_metrics_property(self):
        REGISTRY.inc("session_visible")
        snapshot = Session(backend="stub").metrics
        assert any(
            row["name"] == "session_visible"
            for row in snapshot["counters"]
        )


# ----------------------------------------------------------------------
# Simulator hot-spot profiler
# ----------------------------------------------------------------------
PROFILE_SRC = """
module counter(input clk, output reg [3:0] q);
  initial q = 0;
  always @(posedge clk) q <= q + 1;
endmodule
module top;
  reg clk;
  wire [3:0] q;
  counter c1(.clk(clk), .q(q));
  always @(posedge clk) if (q == 4'd3) $finish;
  initial begin
    clk = 0;
    forever #5 clk = ~clk;
  end
endmodule
"""


class TestSimProfiler:
    def _run(self, profiler=None):
        from repro.verilog import run_simulation

        report, result = run_simulation(
            PROFILE_SRC, top="top", profiler=profiler
        )
        assert report.ok and result is not None
        return result

    def test_constructs_carry_hierarchy_paths(self):
        profiler = SimProfiler()
        self._run(profiler)
        paths = {construct_path(key) for key in profiler.constructs}
        # the instanced always block carries the instance chain; the
        # top-level processes render bare
        assert any(p.startswith("c1.always@") for p in paths)
        assert any(p.startswith("initial@") for p in paths)
        for row in profiler.constructs.values():
            seconds, activations, evals, steps = row
            assert seconds >= 0.0 and activations >= 1
            assert evals >= 0 and steps >= 1
        assert profiler.attributed_seconds == pytest.approx(
            sum(r[0] for r in profiler.constructs.values())
        )

    def test_profiled_run_matches_unprofiled_output(self):
        plain = self._run()
        profiled = self._run(SimProfiler())
        assert profiled.text == plain.text
        assert profiled.time == plain.time
        assert profiled.finished == plain.finished

    def test_unprofiled_simulator_keeps_class_dispatch(self):
        """Disabled means *zero* cost: no instance-level method shadowing
        of the resume path when no profiler is injected."""
        from repro.verilog import compile_design
        from repro.verilog.sim import Simulator

        design = compile_design(PROFILE_SRC, top="top").design
        bare = Simulator(design)
        assert "_resume" not in bare.__dict__
        assert "_check_monitors" not in bare.__dict__
        assert bare._profile_evals is None
        shadowed = Simulator(design, profiler=SimProfiler())
        assert "_resume" in shadowed.__dict__

    def test_rows_sorted_hottest_first(self):
        profiler = SimProfiler()
        profiler.add(("", "initial", 3), 0.5, 10, 4)
        profiler.add(("a", "always", 9), 2.0, 7, 2)
        profiler.add(("a", "always", 9), 1.0, 3, 1)
        rows = profiler.rows()
        assert [r["path"] for r in rows] == ["a.always@9", "initial@3"]
        assert rows[0]["seconds"] == pytest.approx(3.0)
        assert rows[0]["activations"] == 2
        assert rows[0]["evals"] == 10

    def test_merge_accumulates(self):
        a, b = SimProfiler(), SimProfiler()
        a.add(("", "assign", 2), 1.0, 5, 1)
        b.add(("", "assign", 2), 0.5, 2, 1)
        b.add(("x", "always", 7), 0.25, 1, 1)
        a.merge(b)
        assert a.constructs[("", "assign", 2)] == [1.5, 2, 7, 2]
        assert ("x", "always", 7) in a.constructs

    def test_maybe_sim_profiler_requires_flag_and_sink(self):
        assert maybe_sim_profiler() is None  # disabled by default
        with profiling():
            assert profiling_enabled()
            assert maybe_sim_profiler() is None  # enabled, but no sink
            with TraceWriterSpy([]):
                assert isinstance(maybe_sim_profiler(), SimProfiler)
        assert not profiling_enabled()  # context restored the flag

    def test_record_profile_skips_empty_runs(self):
        seen = []
        with TraceWriterSpy(seen):
            record_profile(SimProfiler(), problem=1, sim_seconds=0.1)
        assert seen == []

    def test_profile_frame_shape(self):
        profiler = SimProfiler()
        profiler.add(("c1", "always", 4), 0.125, 9, 3)
        with job_tags(model="m", problem=5):
            frame = profile_frame(profiler, problem=5, sim_seconds=0.25)
        assert frame["type"] == "profile"
        assert frame["problem"] == 5
        assert frame["sim_seconds"] == pytest.approx(0.25)
        assert frame["tags"] == {"model": "m", "problem": 5}
        assert frame["constructs"][0]["path"] == "c1.always@4"
        json.dumps(frame)  # NDJSON-ready as-is


class TestProfileFramesEndToEnd:
    def test_evaluator_emits_profile_frames_when_enabled(self):
        seen = []
        with TraceWriterSpy(seen), profiling():
            session = Session(backend="stub-canonical")
            session.run_plan(session.plan(TINY))
        profiles = [f for f in seen if f.get("type") == "profile"]
        assert profiles, "canonical solutions simulate; frames expected"
        for frame in profiles:
            assert frame["problem"] in TINY.problem_numbers
            assert frame["sim_seconds"] > 0.0
            assert frame["constructs"]
        # structure only: millisecond runs make the attributed share
        # timing-dependent, so bench_profile.py gates coverage instead
        seconds = [
            row["seconds"] for f in profiles for row in f["constructs"]
        ]
        assert all(value >= 0.0 for value in seconds)
        assert sum(seconds) > 0.0

    def test_disabled_profiling_emits_no_frames(self):
        seen = []
        with TraceWriterSpy(seen):
            session = Session(backend="stub-canonical")
            session.run_plan(session.plan(TINY))
        assert not any(f.get("type") == "profile" for f in seen)

    def test_trace_writer_persists_profile_frames(self, tmp_path):
        path = tmp_path / "profiled.trace"
        with TraceWriter(str(path)), profiling():
            session = Session(backend="stub-canonical")
            session.run_plan(session.plan(TINY))
        frames = load_trace(str(path))
        assert any(f["type"] == "profile" for f in frames)


class TestHotspotsSummary:
    @staticmethod
    def _write_profiled_trace(path, runs):
        """runs: list of (sim_seconds, [(path_key, seconds, evals)])."""
        with TraceWriter(str(path)):
            for sim_seconds, constructs in runs:
                profiler = SimProfiler()
                for key, seconds, evals in constructs:
                    profiler.add(key, seconds, evals, 1)
                record_profile(profiler, problem=1,
                               sim_seconds=sim_seconds)

    def test_aggregation_across_frames_and_files(self, tmp_path):
        a, b = tmp_path / "a.trace", tmp_path / "b.trace"
        self._write_profiled_trace(a, [
            (1.0, [(("", "always", 3), 0.6, 10), (("c", "assign", 7), 0.3, 5)]),
        ])
        self._write_profiled_trace(b, [
            (1.0, [(("", "always", 3), 0.5, 8)]),
        ])
        summary = summarize_traces([str(a), str(b)])
        profile = summary["profile"]
        assert profile["frames"] == 2
        assert profile["sim_seconds"] == pytest.approx(2.0)
        assert profile["attributed_seconds"] == pytest.approx(1.4)
        assert profile["coverage"] == pytest.approx(0.7)
        top = profile["constructs"][0]
        assert top["path"] == "always@3"
        assert top["seconds"] == pytest.approx(1.1)
        assert top["evals"] == 18

    def test_render_hotspots_stops_at_coverage(self, tmp_path):
        path = tmp_path / "p.trace"
        self._write_profiled_trace(path, [
            (1.0, [
                (("", "always", 1), 0.70, 1),
                (("", "always", 2), 0.20, 1),
                (("", "always", 3), 0.05, 1),
            ]),
        ])
        report = render_hotspots(
            summarize_traces([str(path)]), coverage=0.80
        )
        assert "always@1" in report and "always@2" in report
        assert "always@3" not in report
        assert "1 more construct(s)" in report
        assert "95.0% attributed" in report

    def test_render_stats_mentions_profile(self, tmp_path):
        path = tmp_path / "p.trace"
        self._write_profiled_trace(
            path, [(0.5, [(("", "initial", 2), 0.4, 3)])]
        )
        report = render_stats(summarize_traces([str(path)]))
        assert "sim profile: 1 run(s)" in report
        assert "repro hotspots" in report

    def test_render_hotspots_empty_message(self, tmp_path):
        path = tmp_path / "plain.trace"
        write_trace(path)
        report = render_hotspots(summarize_traces([str(path)]))
        assert "no profile frames found" in report

    def test_profile_frame_validation(self, tmp_path):
        bad = tmp_path / "bad.trace"
        bad.write_text('{"type":"profile","sim_seconds":0.1}\n')
        with pytest.raises(TraceFormatError, match="missing constructs"):
            load_trace(str(bad))
        bad.write_text('{"type":"profile","constructs":[]}\n')
        with pytest.raises(TraceFormatError, match="missing sim_seconds"):
            load_trace(str(bad))


class TestExpandTracePaths:
    def test_directory_expands_sorted_trace_files(self, tmp_path):
        (tmp_path / "b.trace").write_text("x")
        (tmp_path / "a.ndjson").write_text("x")
        (tmp_path / "notes.txt").write_text("x")
        expanded = expand_trace_paths([str(tmp_path)])
        assert [p.rsplit("/", 1)[-1] for p in expanded] == [
            "a.ndjson", "b.trace",
        ]

    def test_empty_directory_is_an_error(self, tmp_path):
        with pytest.raises(TraceFormatError, match="no .trace"):
            expand_trace_paths([str(tmp_path)])

    def test_glob_expands_and_misses_are_errors(self, tmp_path):
        (tmp_path / "w0.trace").write_text("x")
        (tmp_path / "w1.trace").write_text("x")
        expanded = expand_trace_paths([str(tmp_path / "w*.trace")])
        assert len(expanded) == 2
        with pytest.raises(TraceFormatError, match="matched no files"):
            expand_trace_paths([str(tmp_path / "nope-*.trace")])

    def test_literals_pass_through_and_dedupe(self, tmp_path):
        path = tmp_path / "run.trace"
        path.write_text("x")
        expanded = expand_trace_paths(
            [str(path), str(path), str(tmp_path)]
        )
        assert expanded == [str(path)]


# ----------------------------------------------------------------------
# Prometheus label escaping + histogram edge cases (regressions)
# ----------------------------------------------------------------------
class TestPrometheusEscaping:
    def test_special_characters_escaped_per_exposition_format(self):
        reg = MetricsRegistry()
        reg.inc("errors", route='path "with" quotes')
        reg.inc("errors", route="back\\slash")
        reg.inc("errors", route="two\nlines")
        text = render_prometheus(reg)
        assert 'errors{route="path \\"with\\" quotes"} 1.0' in text
        assert 'errors{route="back\\\\slash"} 1.0' in text
        assert 'errors{route="two\\nlines"} 1.0' in text
        # every series stays on one physical line
        for line in text.splitlines():
            assert line.count("{") <= 1

    def test_backslash_escaped_before_quotes(self):
        """Escape order regression: a pre-escaped-looking value must not
        be double-unescapable (backslash first, then quote)."""
        reg = MetricsRegistry()
        reg.inc("c", label='\\"')
        text = render_prometheus(reg)
        assert 'c{label="\\\\\\""} 1.0' in text


class TestHistogramEdgeCases:
    def test_empty_histogram_quantiles_are_zero(self):
        hist = Histogram()
        assert hist.quantile(0.5) == 0.0
        assert hist.quantile(0.99) == 0.0
        snap = hist.snapshot()
        assert snap["count"] == 0 and snap["sum"] == 0.0
        assert snap["p50"] == snap["p99"] == 0.0

    def test_single_sample_quantiles_clamp_to_value(self):
        hist = Histogram()
        hist.observe(3.5)
        assert hist.quantile(0.0) == 3.5
        assert hist.quantile(1.0) == 3.5

    def test_reset_clears_combined_state_and_rebuilds(self):
        reg = MetricsRegistry()
        reg.observe("lat", 1.0, stage="sim")
        reg.inc("count")
        reg.set_gauge("depth", 4)
        reg.reset()
        assert reg.histogram_snapshot("lat", stage="sim")["count"] == 0
        # the registry is fully usable after a combined reset
        reg.observe("lat", 2.0, stage="sim")
        snap = reg.histogram_snapshot("lat", stage="sim")
        assert snap["count"] == 1 and snap["min"] == 2.0


# ----------------------------------------------------------------------
# Fleet telemetry: pusher deltas, hub merge, routes
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestTelemetryPusher:
    def _pusher(self, reg, sends, clock=None, **kwargs):
        return TelemetryPusher(
            sends.append, "w0", registry=reg,
            clock=clock or FakeClock(), **kwargs
        )

    def test_payload_carries_counter_deltas_not_absolutes(self):
        reg = MetricsRegistry()
        sends = []
        pusher = self._pusher(reg, sends)
        reg.inc("jobs", 3)
        assert pusher.push()
        reg.inc("jobs", 2)
        assert pusher.push()
        values = [
            entry["value"]
            for payload in sends
            for entry in payload["counters"]
            if entry["name"] == "jobs"
        ]
        assert values == [3.0, 2.0]
        # unchanged counters do not travel at all
        assert sends[1]["seq"] == 2

    def test_gauges_travel_absolute(self):
        reg = MetricsRegistry()
        sends = []
        pusher = self._pusher(reg, sends)
        reg.set_gauge("depth", 7)
        pusher.push()
        pusher.push()
        assert all(
            payload["gauges"][0]["value"] == 7.0 for payload in sends
        )

    def test_failed_push_deltas_ride_the_next_attempt(self):
        reg = MetricsRegistry()
        reg.inc("jobs", 5)
        calls = []

        def flaky(payload):
            calls.append(payload)
            if len(calls) == 1:
                raise OSError("connection refused")

        clock = FakeClock()
        pusher = TelemetryPusher(flaky, "w0", registry=reg, clock=clock,
                                 interval=2.0)
        assert not pusher.push()
        assert pusher.failures == 1
        clock.advance(5.0)
        assert pusher.maybe_push()
        # the second payload still carries the full un-committed delta
        assert calls[1]["counters"][0]["value"] == 5.0

    def test_disables_after_consecutive_failures(self):
        reg = MetricsRegistry()

        def always_down(_payload):
            raise OSError("no route")

        clock = FakeClock()
        pusher = TelemetryPusher(always_down, "w0", registry=reg,
                                 clock=clock, interval=1.0)
        for _ in range(3):
            clock.advance(2.0)
            pusher.push()
        assert pusher.disabled
        assert not pusher.due()
        assert not pusher.push()  # disabled: no further sends

    def test_maybe_push_respects_interval(self):
        reg = MetricsRegistry()
        sends = []
        clock = FakeClock()
        pusher = self._pusher(reg, sends, clock=clock, interval=2.0)
        assert pusher.maybe_push()  # first push is immediate
        assert not pusher.maybe_push()  # too soon
        clock.advance(2.5)
        assert pusher.maybe_push()
        assert len(sends) == 2

    def test_histogram_deltas_only_when_new_samples(self):
        reg = MetricsRegistry()
        sends = []
        pusher = self._pusher(reg, sends)
        reg.observe("lat", 1.0)
        pusher.push()
        pusher.push()  # no new samples: histogram omitted
        reg.observe("lat", 3.0)
        pusher.push()
        hist_counts = [
            [h["count"] for h in payload["histograms"]]
            for payload in sends
        ]
        assert hist_counts == [[1], [], [1]]
        assert sends[2]["histograms"][0]["sum"] == pytest.approx(3.0)


class TestTelemetryHub:
    def _push(self, worker, counters=(), gauges=(), histograms=(), seq=1):
        return {
            "worker": worker, "seq": seq, "sent_unix": 0.0,
            "counters": list(counters), "gauges": list(gauges),
            "histograms": list(histograms),
        }

    def test_counters_accumulate_with_worker_label(self):
        hub = TelemetryHub(clock=FakeClock())
        row = {"name": "jobs", "labels": {"stage": "sim"}, "value": 2.0}
        hub.ingest(self._push("w0", counters=[row]))
        hub.ingest(self._push("w0", counters=[row], seq=2))
        hub.ingest(self._push("w1", counters=[row]))
        snapshot = hub.metrics_snapshot()
        jobs = {
            tuple(sorted(r["labels"].items())): r["value"]
            for r in snapshot["counters"] if r["name"] == "jobs"
        }
        assert jobs[(("stage", "sim"), ("worker", "w0"))] == 4.0
        assert jobs[(("stage", "sim"), ("worker", "w1"))] == 2.0

    def test_histograms_merge_counts_and_extremes(self):
        hub = TelemetryHub(clock=FakeClock())
        hub.ingest(self._push("w0", histograms=[
            {"name": "lat", "labels": {}, "count": 2, "sum": 3.0,
             "min": 1.0, "max": 2.0, "p50": 1.5, "p95": 2.0, "p99": 2.0},
        ]))
        hub.ingest(self._push("w0", seq=2, histograms=[
            {"name": "lat", "labels": {}, "count": 1, "sum": 9.0,
             "min": 9.0, "max": 9.0, "p50": 9.0, "p95": 9.0, "p99": 9.0},
        ]))
        row = hub.metrics_snapshot()["histograms"][0]
        assert row["count"] == 3 and row["sum"] == pytest.approx(12.0)
        assert row["min"] == 1.0 and row["max"] == 9.0
        assert row["p50"] == 9.0  # latest estimate wins

    def test_staleness_and_synthetic_gauges(self):
        clock = FakeClock()
        hub = TelemetryHub(stale_after=10.0, clock=clock)
        hub.ingest(self._push("w0"))
        clock.advance(3.0)
        hub.ingest(self._push("w1"))
        clock.advance(8.0)  # w0 now 11s old, w1 8s old
        rows = {row["worker"]: row for row in hub.workers()}
        assert rows["w0"]["stale"] and not rows["w1"]["stale"]
        ups = {
            row["labels"]["worker"]: row["value"]
            for row in hub.metrics_snapshot()["gauges"]
            if row["name"] == "telemetry_worker_up"
        }
        assert ups == {"w0": 0.0, "w1": 1.0}

    def test_ingest_validates_payload(self):
        hub = TelemetryHub()
        with pytest.raises(ValueError, match="object"):
            hub.ingest([1, 2])
        with pytest.raises(ValueError, match="worker"):
            hub.ingest({"seq": 1})
        # malformed series rows are skipped, not fatal
        ack = hub.ingest(self._push("w0", counters=["junk", {"x": 1}]))
        assert ack == {"ok": True, "worker": "w0", "pushes": 1}

    def test_fleet_prometheus_stacks_local_and_fleet(self):
        reg = MetricsRegistry()
        reg.inc("jobs", 1.0)
        hub = TelemetryHub(clock=FakeClock())
        hub.ingest(self._push("w0", counters=[
            {"name": "jobs", "labels": {}, "value": 2.0},
        ]))
        text = render_fleet_prometheus(reg, hub)
        assert text.count("# TYPE jobs counter") == 1  # declared once
        assert "jobs 1.0" in text
        assert 'jobs{worker="w0"} 2.0' in text
        assert '# TYPE telemetry_worker_up gauge' in text

    def test_empty_hub_output_identical_to_local_rendering(self):
        reg = MetricsRegistry()
        reg.inc("jobs", route="/x")
        assert render_fleet_prometheus(reg, TelemetryHub()) == \
            render_prometheus(reg)
        assert render_fleet_prometheus(reg, None) == render_prometheus(reg)


class TestTelemetryRoutes:
    def _payload(self, worker):
        return {
            "worker": worker, "seq": 1, "sent_unix": 0.0,
            "counters": [
                {"name": "worker_records_submitted", "labels": {},
                 "value": 4.0},
            ],
            "gauges": [], "histograms": [],
        }

    def test_service_app_telemetry_roundtrip(self):
        from repro.service import ServiceApp
        from repro.service.server import RAW_TEXT_KEY

        app = ServiceApp(Session(backend="zoo"))
        status, body = app.handle("POST", "/telemetry", self._payload("w0"))
        assert status == 200 and body["ok"] and body["worker"] == "w0"

        status, body = app.handle("GET", "/metrics")
        assert status == 200
        fleet = body["fleet"]
        assert [w["worker"] for w in fleet["workers"]] == ["w0"]
        assert any(
            row["name"] == "worker_records_submitted"
            and row["labels"] == {"worker": "w0"}
            for row in fleet["metrics"]["counters"]
        )

        status, body = app.handle("GET", "/metrics/prom")
        assert status == 200
        assert 'worker_records_submitted{worker="w0"} 4.0' in body[RAW_TEXT_KEY]

    def test_metrics_omits_fleet_until_first_push(self):
        from repro.service import ServiceApp

        app = ServiceApp(Session(backend="zoo"))
        _, body = app.handle("GET", "/metrics")
        assert "fleet" not in body

    def test_bad_telemetry_payload_is_400(self):
        from repro.service import ServiceApp

        app = ServiceApp(Session(backend="zoo"))
        status, body = app.handle("POST", "/telemetry", {"seq": 1})
        assert status == 400
        assert "worker" in body["error"]

    def test_dashboard_route_serves_html(self):
        from repro.service import ServiceApp
        from repro.service.server import RAW_TEXT_KEY

        app = ServiceApp(Session(backend="zoo"))
        status, body = app.handle("GET", "/dashboard")
        assert status == 200
        assert body["content_type"].startswith("text/html")
        html = body[RAW_TEXT_KEY]
        assert "<!DOCTYPE html>" in html
        assert "/metrics" in html and "/shard/status" in html
        # self-contained: no external asset loads from the page
        assert "http://" not in html and "https://" not in html

    @staticmethod
    def _post_json(url, payload):
        request = urllib.request.Request(
            url, data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"}, method="POST",
        )
        with urllib.request.urlopen(request, timeout=5) as response:
            return response.status, json.loads(response.read())

    def test_fleet_routes_over_both_http_servers(self):
        """Both servers ingest pushes from two workers and expose the
        merged, worker-labelled fleet view on one scrape."""
        from repro.service import AsyncEvalService, EvalService

        with EvalService(Session(backend="zoo"), port=0) as stdlib_svc, \
                AsyncEvalService(Session(backend="zoo"), port=0) as aio_svc:
            for url in (stdlib_svc.url, aio_svc.url):
                for worker in ("w-a", "w-b"):
                    status, ack = self._post_json(
                        url + "/telemetry", self._payload(worker)
                    )
                    assert status == 200 and ack["ok"]
                with urllib.request.urlopen(
                    url + "/metrics/prom", timeout=5
                ) as response:
                    text = response.read().decode("utf-8")
                assert 'worker_records_submitted{worker="w-a"} 4.0' in text
                assert 'worker_records_submitted{worker="w-b"} 4.0' in text
                with urllib.request.urlopen(
                    url + "/dashboard", timeout=5
                ) as response:
                    assert response.headers.get_content_type() == "text/html"
                    assert b"repro dashboard" in response.read()


class TestWorkerTelemetryEndToEnd:
    def test_run_worker_pushes_registry_deltas(self):
        from repro.service import (
            ServiceApp,
            ShardCoordinator,
            ShardPlanner,
            in_process_transport,
            run_worker,
        )

        session = Session(backend="zoo")
        plan = session.plan(TINY, models=["codegen-2b-ft"])
        coordinator = ShardCoordinator(
            ShardPlanner(2).split(plan), lease_seconds=60
        )
        app = ServiceApp(session, coordinator=coordinator)
        summary = run_worker(
            transport=in_process_transport(app),
            session=Session(backend="zoo"),
            worker_id="w-tele",
            max_idle_polls=3,
            telemetry_seconds=0.001,
        )
        assert summary["shards"] == 2
        fleet = app.telemetry.fleet_snapshot()
        assert [w["worker"] for w in fleet["workers"]] == ["w-tele"]
        counters = {
            (row["name"], row["labels"]["worker"]): row["value"]
            for row in fleet["metrics"]["counters"]
        }
        assert counters[("worker_units_submitted", "w-tele")] == 2.0

    def test_telemetry_disabled_with_none_interval(self):
        from repro.service import (
            ServiceApp,
            ShardCoordinator,
            ShardPlanner,
            in_process_transport,
            run_worker,
        )

        session = Session(backend="zoo")
        plan = session.plan(TINY, models=["codegen-2b-ft"])
        coordinator = ShardCoordinator(
            ShardPlanner(1).split(plan), lease_seconds=60
        )
        app = ServiceApp(session, coordinator=coordinator)
        run_worker(
            transport=in_process_transport(app),
            session=Session(backend="zoo"),
            max_idle_polls=3,
            telemetry_seconds=None,
        )
        assert len(app.telemetry) == 0


# ----------------------------------------------------------------------
# Dashboard rendering + repro top
# ----------------------------------------------------------------------
class TestDashboardRender:
    def _view(self):
        return {
            "url": "http://127.0.0.1:1",
            "metrics": {
                "metrics": {
                    "counters": [
                        {"name": "repair_attempts",
                         "labels": {"verdict": "pass"}, "value": 3.0},
                        {"name": "repair_attempts",
                         "labels": {"verdict": "sim_fail"}, "value": 1.0},
                        {"name": "evaluator_cache",
                         "labels": {"result": "hit"}, "value": 5.0},
                        {"name": "evaluator_cache",
                         "labels": {"result": "miss"}, "value": 5.0},
                    ],
                    "gauges": [],
                    "histograms": [
                        {"name": "stage_seconds",
                         "labels": {"stage": "sim"}, "count": 4,
                         "sum": 3.0, "min": 0.1, "max": 2.0,
                         "p50": 0.5, "p95": 2.0, "p99": 2.0},
                        {"name": "stage_seconds",
                         "labels": {"stage": "generate"}, "count": 4,
                         "sum": 1.0, "min": 0.1, "max": 0.5,
                         "p50": 0.2, "p95": 0.5, "p99": 0.5},
                    ],
                },
                "fleet": {
                    "workers": [
                        {"worker": "w0", "pushes": 9, "seq": 9,
                         "age_seconds": 1.0, "stale": False},
                        {"worker": "w1", "pushes": 2, "seq": 2,
                         "age_seconds": 42.0, "stale": True},
                    ],
                    "metrics": {"counters": [], "gauges": [],
                                "histograms": []},
                },
            },
            "status": {
                "jobs_total": 10, "jobs_done": 6, "done": 3, "leased": 1,
                "pending": 2, "records_merged": 60, "records_streaming": 0,
                "store_hits": 4, "leases_reclaimed": 1,
                "leases": [
                    {"lease_id": "abcdef123456789", "shard_index": 4,
                     "worker_id": "w0", "expires_in": 55.2,
                     "records_streamed": 7},
                ],
                "workers": [
                    {"worker_id": "w0", "units": 3, "jobs": 6,
                     "records": 60, "errors": 1, "store_hits": 4,
                     "busy_seconds": 2.0, "jobs_per_second": 3.0},
                ],
            },
            "errors": [],
        }

    def test_page_sections(self):
        from repro.obs.dashboard import render_dashboard

        page = render_dashboard(self._view())
        assert "sweep: 6/10 jobs" in page
        assert "1 lease(s) reclaimed" in page
        assert "abcdef123456" in page  # lease id truncated to 12
        assert "up 1s ago" in page  # live worker mark
        assert "STALE 42s" in page  # stale telemetry-only worker
        assert "sim" in page and "generate" in page
        assert "lift 75.0%" in page  # 3 pass / 4 attempts
        assert "cache hit 50.0%" in page
        assert "job errors: 16.7%" in page  # 1 error / 6 jobs

    def test_no_coordinator_view(self):
        from repro.obs.dashboard import render_dashboard

        page = render_dashboard({
            "url": "u", "metrics": {"metrics": {
                "counters": [], "gauges": [], "histograms": []}},
            "status": None,
            "errors": ["/shard/status: HTTP 400"],
        })
        assert "no coordinator attached" in page
        # the status poll error is folded into that line, not repeated
        assert "poll error" not in page

    def test_stage_split_helper(self):
        from repro.obs.dashboard import stage_split

        split = stage_split(self._view()["metrics"]["metrics"])
        assert [row["stage"] for row in split] == ["sim", "generate"]
        assert split[0]["share"] == pytest.approx(0.75)

    def test_run_top_once_against_live_service(self, capsys):
        from repro.service import EvalService

        with EvalService(Session(backend="zoo"), port=0) as svc:
            assert main(["top", "--url", svc.url, "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "\x1b[2J" not in out  # --once never clears the screen

    def test_run_top_once_unreachable_exits_one(self):
        from repro.obs.dashboard import run_top

        pages = []
        code = run_top("http://127.0.0.1:9", once=True, timeout=0.2,
                       out=pages.append)
        assert code == 1
        assert "poll error" in pages[0]

    def test_run_top_loop_clears_between_frames(self):
        from repro.obs.dashboard import CLEAR, run_top

        pages = []

        def stop(_seconds):
            raise KeyboardInterrupt

        code = run_top("http://127.0.0.1:9", timeout=0.2,
                       out=pages.append, sleep=stop)
        assert code == 0
        assert pages[0].startswith(CLEAR)


class TestHotspotsCli:
    @staticmethod
    def _profiled_sweep(tmp_path, name="run.trace"):
        trace = tmp_path / name
        code = main([
            "sweep", "--backend", "stub-canonical", "--problems", "1,2",
            "--temperatures", "0.1", "--n", "1", "--levels", "L",
            "--trace", str(trace), "--profile",
        ])
        assert code == 0
        return trace

    def test_profiled_sweep_then_hotspots(self, capsys, tmp_path):
        trace = self._profiled_sweep(tmp_path)
        out = capsys.readouterr().out
        assert "repro hotspots" in out  # the hint names the right command
        frames = load_trace(str(trace))
        meta = frames[0]
        assert meta["tags"]["profiled"] is True
        assert any(f["type"] == "profile" for f in frames)
        assert main(["hotspots", str(trace)]) == 0
        report = capsys.readouterr().out
        assert "sim hotspots" in report
        assert not profiling_enabled()  # flag restored after the command

    def test_hotspots_accepts_directory_and_glob(self, capsys, tmp_path):
        self._profiled_sweep(tmp_path)
        capsys.readouterr()
        assert main(["hotspots", str(tmp_path)]) == 0
        assert "sim hotspots" in capsys.readouterr().out
        assert main(["stats", str(tmp_path / "*.trace")]) == 0
        assert "sim profile" in capsys.readouterr().out

    def test_hotspots_json_output(self, capsys, tmp_path):
        trace = self._profiled_sweep(tmp_path)
        capsys.readouterr()
        assert main(["hotspots", str(trace), "--json"]) == 0
        profile = json.loads(capsys.readouterr().out)
        assert profile["frames"] > 0
        assert profile["constructs"]

    def test_hotspots_bad_inputs_exit_two(self, capsys, tmp_path):
        assert main(["hotspots", str(tmp_path / "missing.trace")]) == 2
        assert "error" in capsys.readouterr().out
        (tmp_path / "t.trace").write_text('{"type":"meta","version":1}\n')
        assert main([
            "hotspots", str(tmp_path / "t.trace"), "--coverage", "1.5",
        ]) == 2
        assert "--coverage" in capsys.readouterr().out

    def test_profile_without_trace_exits_two(self, capsys):
        assert main(["sweep", "--profile"]) == 2
        assert "--profile needs --trace" in capsys.readouterr().out
