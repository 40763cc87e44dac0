"""Socket-level tests for the asyncio eval service: plain routes,
NDJSON sweep streaming, polled coordinator status, stopping on
disconnect."""

import asyncio
import contextlib
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
    http_transport,
    iter_sweep_events,
    job_ranges,
    run_worker,
    stream_sweep,
)
from repro.service.aio.events import assemble_stream_result
from repro.service.client import _iter_frames
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


@pytest.fixture()
def client(service):
    with contextlib.closing(ServiceBackend(url=service.url)) as backend:
        yield backend


class TestPlainRoutesOverAsyncServer:
    def test_health_and_models(self, client):
        assert client.health()["status"] == "ok"
        assert client.models() == ["stub"]

    def test_generate_roundtrip(self, client):
        completions = client.generate(
            "stub", "module m;", GenerationConfig(temperature=0.1, n=3)
        )
        assert len(completions) == 3

    def test_unknown_route_404(self, client):
        with pytest.raises(BackendError, match="404"):
            client._transport("GET", "/teapot", None)

    def test_generate_batch_is_an_unknown_route(self, client):
        # the batch route is gone; every job is one POST /generate
        payload = {"model": "stub", "requests": [{"prompt": "module m;"}]}
        with pytest.raises(BackendError, match="404") as excinfo:
            client._transport("POST", "/generate_batch", payload)
        assert "no route POST /generate_batch" in str(excinfo.value)

    @pytest.mark.parametrize("method, path, payload", [
        ("POST", "/sweep", {}), ("GET", "/shard/status/stream", None),
    ])
    def test_removed_routes_are_unknown(self, client, method, path, payload):
        # a remote sweep is POST /sweep/stream, coordinator status the
        # polled GET /shard/status
        with pytest.raises(BackendError, match="404") as excinfo:
            client._transport(method, path, payload)
        assert f"no route {method} {path}" in str(excinfo.value)
        assert client.health()["status"] == "ok"

    def test_bad_json_body_400(self, service):
        request = urllib.request.Request(
            service.url + "/generate",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        excinfo.value.close()
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

    @pytest.mark.parametrize("body", [{"config": 5}, {"config": [1]}])
    def test_non_object_config_is_400(self, client, body):
        with pytest.raises(BackendError, match="400") as excinfo:
            client._transport("POST", "/sweep/stream", body)
        assert "bad sweep request: a sweep config is a JSON object" in str(
            excinfo.value
        )
        assert client.health()["status"] == "ok"

    @pytest.mark.parametrize("models", ["abc", 5, [1]])
    def test_models_must_be_a_list_of_names(self, client, models):
        with pytest.raises(BackendError, match="400") as excinfo:
            client._transport(
                "POST", "/sweep/stream",
                {"config": config_to_dict(SMALL), "models": models},
            )
        assert "bad sweep request: models must be a list" in str(
            excinfo.value
        )
        assert client.health()["status"] == "ok"

    def test_malformed_stream_lines_raise_protocol_error(self):
        from repro.service import StreamProtocolError
        from repro.service.aio import decode_stream

        with pytest.raises(StreamProtocolError):
            list(decode_stream([b'{"event": "record"}']))

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
        """Once the client hangs up no further job starts, the handler
        returns without waiting for the job in flight, and the sweep's
        threads exit once that job finishes (its result discarded)."""

        class Gated(StubBackend):
            """The first job returns once a second is in flight; every
            later job waits for ``gate``."""

            def __init__(self):
                super().__init__()
                self.gate = threading.Event()
                self.second = threading.Event()
                self.lock = threading.Lock()
                self.started = 0

            def generate(self, model, prompt, config):
                with self.lock:
                    self.started += 1
                    first = self.started == 1
                if first:
                    self.second.wait(timeout=30)
                else:
                    self.second.set()
                    self.gate.wait(timeout=30)
                return super().generate(model, prompt, config)

        class Watched(AsyncEvalService):
            returned = threading.Event()

            async def _stream_sweep(self, *args):
                try:
                    await super()._stream_sweep(*args)
                finally:
                    self.returned.set()

        def sweep_threads():
            return [
                thread for thread in threading.enumerate()
                if thread not in before
                and (thread.name == "sweep-stream"
                     or thread.name.startswith("ThreadPoolExecutor-"))
            ]

        backend = Gated()
        before = set(threading.enumerate())
        with Watched(Session(backend=backend), port=0) as svc:
            events = iter_sweep_events(svc.url, config=SMALL, concurrency=2)
            for frame in events:
                if frame["event"] == "record":
                    break
            events.close()  # closes the HTTP connection mid-stream
            # the handler returns while the second job is still blocked
            assert svc.returned.wait(timeout=10)
            assert not backend.gate.is_set()
            time.sleep(0.2)
            started = backend.started
            assert started < 4  # SMALL plans 4 jobs
            assert sweep_threads()  # the in-flight job still runs
            backend.gate.set()
            deadline = time.monotonic() + 10
            while sweep_threads() and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not sweep_threads()
        assert backend.started == started  # nothing started after hang-up


class TestFrameHandoff:
    """The bounded hand-off between a stream's sweep thread and the loop."""

    @staticmethod
    def _wait_for(condition, timeout=10):
        deadline = time.monotonic() + timeout
        while not condition() and time.monotonic() < deadline:
            time.sleep(0.01)
        return condition()

    def test_full_buffer_stalls_the_sweep_thread_until_read(self):
        from repro.service.aio.server import STREAM_BUFFER, _FrameHandoff

        async def scenario():
            handoff = _FrameHandoff(asyncio.get_running_loop())
            sent = []

            def produce():
                for index in range(STREAM_BUFFER + 1):
                    handoff.put({"index": index})
                    sent.append(index)
                handoff.finish(None)

            thread = threading.Thread(target=produce)
            thread.start()
            assert await asyncio.to_thread(
                self._wait_for, lambda: len(sent) == STREAM_BUFFER
            )
            await asyncio.sleep(0.1)
            assert len(sent) == STREAM_BUFFER  # the next put waits
            received = []
            while (frame := await handoff.get()) is not None:
                received.append(frame["index"])
            await asyncio.to_thread(thread.join, 10)
            assert not thread.is_alive()
            assert received == list(range(STREAM_BUFFER + 1))

        asyncio.run(scenario())

    def test_close_releases_a_blocked_sweep_thread(self):
        from repro.service.aio.server import STREAM_BUFFER, _FrameHandoff

        async def scenario():
            handoff = _FrameHandoff(asyncio.get_running_loop())
            errors = []

            def produce():
                try:
                    for index in range(STREAM_BUFFER + 1):
                        handoff.put({"index": index})
                except ConnectionResetError as exc:
                    errors.append(exc)

            thread = threading.Thread(target=produce)
            thread.start()
            await asyncio.sleep(0.1)
            handoff.close()
            await asyncio.to_thread(thread.join, 10)
            assert not thread.is_alive()
            assert errors  # the refused put ended the producer
            with pytest.raises(ConnectionResetError):
                handoff.put({"index": -1})

        asyncio.run(scenario())


class TestStatusStream:
    """Coordinator status, polled over ``GET /shard/status``."""

    def test_enriched_status_route(self):
        session = Session(backend="stub-canonical")
        coordinator = ShardCoordinator(
            session.plan_shards(3, SMALL), lease_seconds=60
        )
        svc = AsyncEvalService(session, port=0, coordinator=coordinator)
        with svc, contextlib.closing(http_transport(svc.url)) as call:
            status = call("GET", "/shard/status", None)
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
            status = call("GET", "/shard/status", None)
            row = status["shards"][shard.shard_index]
            assert row["state"] == "done"
            assert row["records"] == len(result.sweep)
            assert row["worker_id"] == "w1"
            assert status["store_hits"] == 7
            assert status["jobs_done"] == len(shard.plan.jobs)


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

    @pytest.mark.parametrize("field, value", [
        ("concurrency", 0), ("concurrency", -1), ("concurrency", True),
        ("concurrency", 2.7), ("concurrency", "3"), ("concurrency", 33),
        ("concurrency", 10**9), ("concurrency", None),
    ])
    def test_stream_rejects_bad_concurrency_and_batch_size(
        self, service, field, value
    ):
        # concurrency is the sweep's thread count: a resource bound set
        # by the request, so only JSON integers in range get through
        request = urllib.request.Request(
            service.url + "/sweep/stream",
            data=json.dumps(
                {"config": config_to_dict(SMALL), field: value}
            ).encode(),
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 400
        assert field in json.loads(excinfo.value.read())["error"]

    def test_stream_accepts_the_concurrency_ceiling(self, service):
        result = stream_sweep(service.url, config=SMALL, concurrency=32)
        assert result.stats["concurrency"] == 32

    @pytest.mark.parametrize("batch_size", [4, 0])
    def test_stream_ignores_an_old_clients_batch_size(
        self, service, batch_size
    ):
        # older clients sent "batch_size" (when above 1); the field no
        # longer means anything and must not change a single record
        def records(**extra):
            payload = {"config": config_to_dict(SMALL), "concurrency": 2}
            frames = list(_iter_frames(
                service.url, "POST", "/sweep/stream",
                {**payload, **extra}, 30.0,
            ))
            return sweep_to_json(assemble_stream_result(frames).sweep)

        assert records(batch_size=batch_size) == records()

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


class _Counting(AsyncEvalService):
    """An eval service that counts the connections it accepts."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.accepts = 0
        self.open = 0

    async def _handle_connection(self, reader, writer):
        self.accepts += 1
        self.open += 1
        try:
            await super()._handle_connection(reader, writer)
        finally:
            self.open -= 1


def _wait_for(predicate, seconds=5.0):
    deadline = time.monotonic() + seconds
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.01)
    return predicate()


class TestKeptAliveConnections:
    """JSON calls reuse one connection per thread; the server keeps it
    open between requests and closes it when told to or when stopped."""

    def test_a_whole_worker_sweep_is_one_connection(self):
        session = Session(backend="stub-canonical")
        plan = session.plan(SMALL)
        coordinator = ShardCoordinator(job_ranges(plan, 1))
        with _Counting(session, port=0, coordinator=coordinator) as svc:
            summary = run_worker(
                url=svc.url, session=Session(backend="stub-canonical"),
                poll_seconds=0.05,
            )
            assert summary["shards"] == len(plan.jobs) == 4
            assert svc.accepts == 1
            # run_worker closed its connection on the way out
            assert _wait_for(lambda: svc.open == 0)
        assert coordinator.result().sweep.records == (
            session.run_plan(plan).sweep.records
        )

    def test_threads_sharing_a_backend_use_a_connection_each(self):
        local = Session(backend="stub-canonical")
        prompts = ["module m;", "module n;", "module o;"]
        config = GenerationConfig(temperature=0.1, n=2)
        with _Counting(local, port=0) as svc:
            backend = ServiceBackend(url=svc.url)
            barrier = threading.Barrier(2)
            texts = {}

            def generate(name):
                barrier.wait(timeout=5)
                texts[name] = [
                    [c.text for c in backend.generate("stub", p, config)]
                    for p in prompts
                ]

            threads = [threading.Thread(target=generate, args=(name,))
                       for name in ("a", "b")]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            assert svc.accepts == 2
            assert texts["a"] == texts["b"] == [
                [c.text for c in local.backend.generate("stub", p, config)]
                for p in prompts
            ]
            with Session(backend=backend, workers=2) as remote_session:
                remote = remote_session.run_sweep(SMALL)
        assert remote.sweep.records == local.run_sweep(SMALL).sweep.records

    def test_close_closes_every_threads_connection(self):
        with _Counting(Session(backend="stub-canonical"), port=0) as svc:
            backend = ServiceBackend(url=svc.url)
            called, release = threading.Barrier(3), threading.Event()

            def health():
                backend.health()
                called.wait(timeout=5)
                release.wait(timeout=5)

            threads = [threading.Thread(target=health) for _ in range(2)]
            for thread in threads:
                thread.start()
            called.wait(timeout=5)
            assert svc.accepts == 2 and svc.open == 2
            # closed from a thread that opened neither, while both live,
            # through the repair wrapper a session puts around it
            Session(backend=backend, repair_budget=1).close()
            assert _wait_for(lambda: svc.open == 0)
            release.set()
            for thread in threads:
                thread.join(timeout=10)
            # an ended thread's connection closes when the next connects
            ended = threading.Thread(target=backend.health)
            ended.start()
            ended.join(timeout=10)
            assert svc.accepts == 3
            assert backend.health()["status"] == "ok"  # reconnects
            assert svc.accepts == 4 and _wait_for(lambda: svc.open == 1)
            backend.close()
            assert _wait_for(lambda: svc.open == 0)

    def test_next_call_after_a_server_restart_succeeds(self):
        session = Session(backend="stub-canonical")
        first = _Counting(session, port=0)
        call = http_transport(first.start(), timeout=5)
        try:
            assert call("GET", "/health")["status"] == "ok"
        finally:
            first.stop()
        # the kept-alive connection died with the first server
        second = _Counting(session, port=first.port)
        second.start()
        try:
            assert call("GET", "/health")["status"] == "ok"
            assert call("GET", "/models")["models"] == ["stub"]
            assert second.accepts == 1
        finally:
            second.stop()
            call.close()

    def test_connection_close_request_gets_a_closed_connection(self, service):
        import socket

        with socket.create_connection(
            (service.host, service.port), timeout=5
        ) as sock:
            sock.sendall(b"GET /health HTTP/1.1\r\nHost: x\r\n"
                         b"Connection: close\r\n\r\n")
            data = b""
            while chunk := sock.recv(65536):  # ends at the server's close
                data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        assert b"Connection: close" in head
        assert json.loads(body)["status"] == "ok"
        # urllib asks for Connection: close on every request
        with urllib.request.urlopen(service.url + "/health", timeout=5) as r:
            assert r.headers["Connection"] == "close"

    def test_http11_requests_share_a_connection(self):
        import http.client

        with _Counting(Session(backend="stub-canonical"), port=0) as svc:
            conn = http.client.HTTPConnection(svc.host, svc.port, timeout=5)
            try:
                for path in ("/health", "/teapot", "/models"):
                    conn.request("GET", path)
                    response = conn.getresponse()
                    response.read()
                    assert response.headers["Connection"] == "keep-alive"
            finally:
                conn.close()
            assert svc.accepts == 1

    def test_stop_with_an_idle_connection_is_prompt_and_quiet(
        self, capfd, caplog
    ):
        from repro.service import ServiceUnreachableError

        svc = AsyncEvalService(Session(backend="stub-canonical"), port=0)
        call = http_transport(svc.start(), timeout=5)
        assert call("GET", "/health")["status"] == "ok"
        started = time.monotonic()
        svc.stop()
        assert time.monotonic() - started < 1.0
        with pytest.raises(ServiceUnreachableError):
            call("GET", "/health")
        _out, err = capfd.readouterr()
        assert "CancelledError" not in err and "Traceback" not in err
        assert not [r for r in caplog.records if r.levelname == "ERROR"]

    def test_stop_async_ends_idle_handlers_itself(self):
        async def scenario():
            svc = _Counting(Session(backend="stub-canonical"), port=0)
            await svc.start_async()
            reader, writer = await asyncio.open_connection(
                svc.host, svc.port
            )
            writer.write(b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n")
            head = await reader.readuntil(b"\r\n\r\n")
            length = int(head.split(b"Content-Length: ")[1].split(b"\r")[0])
            await reader.readexactly(length)
            assert svc.open == 1  # kept alive, waiting for a request
            await asyncio.wait_for(svc.stop_async(), timeout=1.0)
            # closed by stop_async, not by the loop's teardown
            assert svc.open == 0
            assert await reader.read() == b""
            writer.close()

        asyncio.run(scenario())

    def test_row_layout_submit_is_400(self):
        session = Session(backend="stub-canonical")
        coordinator = ShardCoordinator(session.plan_shards(1, SMALL))
        with AsyncEvalService(session, port=0, coordinator=coordinator) as svc:
            call = http_transport(svc.url, timeout=5)
            lease = call("POST", "/shard/next", {"worker_id": "w"})
            result = session.run_plan(shard_from_dict(lease["shard"]).plan)
            payload = sweep_result_to_dict(result)
            payload["records"] = json.loads(sweep_to_json(result.sweep))
            with pytest.raises(BackendError, match="400.*not job runs"):
                call("POST", "/shard/result",
                     {"lease_id": lease["lease_id"], "result": payload})
            # the same connection still serves the corrected submit
            ack = call("POST", "/shard/result", {
                "lease_id": lease["lease_id"],
                "result": sweep_result_to_dict(result),
            })
            assert ack["accepted"] and ack["done"]
            call.close()
