"""Socket-level tests for the asyncio eval service: plain routes,
NDJSON sweep streaming, live status streams, disconnect cancellation."""

import asyncio
import json
import threading
import time
import urllib.request

import pytest

from repro.api import Session
from repro.backends import BackendError, StubBackend
from repro.eval import Evaluator, SweepConfig
from repro.eval.export import (
    config_to_dict,
    sweep_result_to_dict,
    sweep_to_json,
)
from repro.models import GenerationConfig
from repro.problems import PromptLevel
from repro.service import (
    AsyncEvalService,
    ServiceBackend,
    ShardCoordinator,
    iter_status_events,
    iter_sweep_events,
    stream_sweep,
)
from repro.service.aio import AsyncBackend
from repro.service.sharding import shard_from_dict

SMALL = SweepConfig(
    temperatures=(0.1, 0.5),
    completions_per_prompt=(2,),
    levels=(PromptLevel.LOW,),
    problem_numbers=(1, 2),
)


@pytest.fixture()
def service():
    with AsyncEvalService(Session(backend="stub-canonical"), port=0) as svc:
        yield svc


class TestPlainRoutesOverAsyncServer:
    def test_health_and_models(self, service):
        backend = ServiceBackend(url=service.url)
        assert backend.health()["status"] == "ok"
        assert backend.models() == ["stub"]

    def test_generate_roundtrip(self, service):
        backend = ServiceBackend(url=service.url)
        completions = backend.generate(
            "stub", "module m;", GenerationConfig(temperature=0.1, n=3)
        )
        assert len(completions) == 3

    def test_unknown_route_404(self, service):
        with pytest.raises(BackendError, match="404"):
            ServiceBackend(url=service.url)._transport("GET", "/teapot", None)

    def test_bad_json_body_400(self, service):
        request = urllib.request.Request(
            service.url + "/generate",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 400


class TestSweepStream:
    def test_streamed_records_byte_identical_to_serial(self, service):
        serial = Session(backend="stub-canonical").run_sweep(SMALL)
        events = []
        result = stream_sweep(
            service.url, config=SMALL,
            on_event=lambda f: events.append(f["event"]),
        )
        assert sweep_to_json(result.sweep) == sweep_to_json(serial.sweep)
        assert result.skipped == serial.skipped
        assert result.errors == serial.errors
        assert events[-1] == "done"
        assert events.count("record") == len(serial.sweep)

    def test_stream_with_models_and_concurrency(self, service):
        serial = Session(backend="stub-canonical").run_sweep(
            SMALL, models=["stub"]
        )
        result = stream_sweep(
            service.url, config=SMALL, models=["stub"], concurrency=4
        )
        assert sweep_to_json(result.sweep) == sweep_to_json(serial.sweep)
        assert result.stats["concurrency"] == 4

    def test_oversized_frames_stream_through(self):
        # the stream must carry frames far larger than one socket
        # buffer or asyncio's 64 KiB default line limit.  Records carry no
        # completion text, so the padding rides in the model name that
        # every record frame repeats.
        backend = StubBackend(
            canonical=True, model_names=("stub-" + "x" * 200_000,)
        )
        serial = Session(backend=backend).run_sweep(SMALL)
        frame_sizes = []
        with AsyncEvalService(Session(backend=backend), port=0) as svc:
            result = stream_sweep(
                svc.url, config=SMALL,
                on_event=lambda f: frame_sizes.append(len(json.dumps(f))),
            )
        assert max(frame_sizes) > 200_000
        assert sweep_to_json(result.sweep) == sweep_to_json(serial.sweep)
        assert result.errors == serial.errors == []

    def test_unknown_event_frames_are_skipped_live(self, service):
        # a newer server may interleave observational events this
        # client predates; the live reader must skip them exactly as
        # decode_stream does over the same recorded bytes
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        serial = Session(backend="stub-canonical").run_sweep(SMALL)
        request = urllib.request.Request(
            service.url + "/sweep/stream",
            data=json.dumps({"config": config_to_dict(SMALL)}).encode(),
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            lines = response.read().splitlines(keepends=True)
        replay = b"".join(
            lines[:1] + [b'{"event": "heartbeat"}\n'] + lines[1:]
        )

        class ReplayHandler(BaseHTTPRequestHandler):
            def do_POST(self):
                self.rfile.read(int(self.headers["Content-Length"]))
                self.send_response(200)
                self.send_header("Content-Type", "application/x-ndjson")
                self.send_header("Connection", "close")
                self.end_headers()
                self.wfile.write(replay)

            def log_message(self, *args):
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), ReplayHandler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            events = []
            result = stream_sweep(
                f"http://127.0.0.1:{server.server_address[1]}",
                config=SMALL, on_event=lambda f: events.append(f["event"]),
            )
        finally:
            server.shutdown()
            server.server_close()
        assert "heartbeat" in events
        assert len(result.sweep) == len(serial.sweep) == 8
        assert sweep_to_json(result.sweep) == sweep_to_json(serial.sweep)

    def test_bad_sweep_request_is_answered_not_streamed(self, service):
        request = urllib.request.Request(
            service.url + "/sweep/stream",
            data=json.dumps(
                {"config": {"temperatures": ["hot"]}}  # undecodable config
            ).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 400
        assert "bad sweep request" in json.loads(excinfo.value.read())["error"]

    def test_unknown_model_streams_job_errors_not_half_a_stream(self, service):
        # stub capabilities are permissive, so an unknown model plans
        # fine and fails at generation: the stream must still terminate
        # losslessly, with every job as an explicit job_error frame
        result = stream_sweep(service.url, config=SMALL,
                              models=["no-such-model"])
        assert len(result.sweep) == 0
        assert result.errors
        assert all("no-such-model" in e.error or "serves" in e.error
                   for e in result.errors)

    def test_disconnect_cancels_in_flight_jobs(self):
        class SlowAsyncStub(AsyncBackend):
            name = "slow-stub"

            def __init__(self):
                self.stub = StubBackend()
                self.calls = 0
                self.completed = 0
                self.cancelled = 0

            def models(self):
                return self.stub.models()

            def capabilities(self, model):
                return self.stub.capabilities(model)

            async def generate_async(self, model, prompt, config):
                self.calls += 1
                call = self.calls
                try:
                    await asyncio.sleep(0.01 if call == 1 else 30.0)
                    result = self.stub.generate(model, prompt, config)
                    self.completed += 1
                    return result
                except asyncio.CancelledError:
                    self.cancelled += 1
                    raise

        backend = SlowAsyncStub()
        session = Session(backend=backend)
        with AsyncEvalService(session, port=0) as svc:
            events = iter_sweep_events(svc.url, config=SMALL, concurrency=2)
            for frame in events:
                if frame["event"] == "record":
                    break
            events.close()  # closes the HTTP connection mid-stream
            deadline = time.monotonic() + 10
            while backend.cancelled == 0 and time.monotonic() < deadline:
                time.sleep(0.05)
        assert backend.cancelled >= 1
        assert backend.completed == 1


class TestStatusStream:
    @staticmethod
    def _coordinated_service(num_shards=3):
        session = Session(backend="stub-canonical")
        coordinator = ShardCoordinator(
            session.plan_shards(num_shards, SMALL), lease_seconds=60
        )
        return session, AsyncEvalService(
            session, port=0, coordinator=coordinator
        )

    def test_enriched_status_route(self):
        session, svc = self._coordinated_service()
        with svc:
            status = ServiceBackend(url=svc.url)._transport(
                "GET", "/shard/status", None
            )
            assert status["jobs_total"] == sum(
                row["jobs"] for row in status["shards"]
            )
            assert status["store_hits"] == 0
            assert [row["state"] for row in status["shards"]] == [
                "pending"
            ] * 3
            lease = svc.coordinator.next_shard("w1")
            shard = shard_from_dict(lease["shard"])
            result = session.run_plan(shard.plan)
            payload = sweep_result_to_dict(result)
            payload["stats"]["evaluator_cache"] = {"store_hits": 7}
            svc.coordinator.submit_result(lease["lease_id"], payload)
            status = ServiceBackend(url=svc.url)._transport(
                "GET", "/shard/status", None
            )
            row = status["shards"][shard.shard_index]
            assert row["state"] == "done"
            assert row["records"] == len(result.sweep)
            assert row["worker_id"] == "w1"
            assert status["store_hits"] == 7
            assert status["jobs_done"] == len(shard.plan.jobs)

    def test_status_stream_observes_progress_to_done(self):
        session, svc = self._coordinated_service(num_shards=2)
        frames = []
        with svc:
            consumer_error = []
            first_frame = threading.Event()

            def consume():
                try:
                    for frame in iter_status_events(svc.url, poll=0.02):
                        frames.append(frame)
                        first_frame.set()
                except Exception as exc:  # noqa: BLE001 — assert later
                    consumer_error.append(exc)
                    first_frame.set()

            thread = threading.Thread(target=consume)
            thread.start()
            # observe the idle coordinator before any work lands, so the
            # stream provably captures the progression, not just the end
            assert first_frame.wait(timeout=10)
            summary = session.work(url=svc.url, worker_id="streamer")
            thread.join(timeout=10)
            assert not thread.is_alive(), "status stream never terminated"
        assert not consumer_error
        assert summary["shards"] == 2
        assert frames and frames[-1]["event"] == "status"
        assert frames[-1]["complete"] is True
        assert frames[-1]["done"] == 2
        assert frames[0]["done"] < 2  # we watched it progress
        status_frames = [f for f in frames if f["event"] == "status"]
        assert all("shards" in f for f in status_frames)
        # merges interleave observational metric frames (worker
        # throughput aggregates) between status frames
        metric_frames = [f for f in frames if f["event"] == "metric"]
        assert metric_frames, "no metric frame observed after merges"
        workers = metric_frames[-1]["metrics"]["workers"]
        assert workers and workers[0]["worker_id"] == "streamer"
        assert workers[0]["jobs"] > 0

    def test_non_finite_poll_is_400(self):
        # nan slips through min/max clamps; the server must refuse it
        # rather than re-poll the coordinator in a busy loop
        _session, svc = self._coordinated_service()
        with svc:
            for poll in ("nan", "inf"):
                with pytest.raises(BackendError, match="400.*bad poll"):
                    next(iter_status_events(svc.url, poll=float(poll)))
            frames = iter_status_events(svc.url, poll=0.02)
            assert next(frames)["event"] == "status"
            frames.close()

    def test_status_stream_without_coordinator_is_400(self, service):
        with pytest.raises(BackendError, match="no shard coordinator"):
            list(iter_status_events(service.url))

    def test_malformed_stream_lines_raise_protocol_error(self, service):
        from repro.service import StreamProtocolError
        from repro.service.aio import decode_stream

        with pytest.raises(StreamProtocolError):
            list(decode_stream([b'{"event": "record"}']))


class TestRequestHygiene:
    def test_bad_content_length_gets_400(self, service):
        import socket

        with socket.create_connection(
            ("127.0.0.1", service.port), timeout=5
        ) as sock:
            sock.sendall(
                b"POST /generate HTTP/1.1\r\n"
                b"Host: x\r\nContent-Length: abc\r\n\r\n"
            )
            response = sock.recv(4096)
        assert b"400" in response.split(b"\r\n", 1)[0]
        assert b"Content-Length" in response

    def test_negative_content_length_gets_400(self, service):
        import socket

        with socket.create_connection(
            ("127.0.0.1", service.port), timeout=5
        ) as sock:
            sock.sendall(
                b"POST /generate HTTP/1.1\r\n"
                b"Host: x\r\nContent-Length: -5\r\n\r\n"
            )
            response = sock.recv(4096)
        assert b"400" in response.split(b"\r\n", 1)[0]
        assert b"bad Content-Length '-5'" in response

    def test_stream_cli_notes_ignored_local_flags(self, service, capsys):
        from repro.cli import main

        code = main([
            "sweep", "--stream", "--url", service.url,
            "--problems", "1", "--temperatures", "0.1", "--n", "2",
            "--levels", "L", "--retries", "3", "--executor", "process",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "--retries" in out and "--executor" in out
        assert "ignored by --stream" in out
