"""Tests for the distributed eval service (repro.service server/client)
and the process-pool executor."""

import pytest

from repro.api import Session
from repro.backends import BackendError, StubBackend, available_backends, create_backend
from repro.eval import SweepConfig, SweepExecutor, SweepPlanner
from repro.problems import PromptLevel
from repro.models import GenerationConfig
from repro.service import (
    AsyncEvalService,
    ProcessPoolSweepExecutor,
    ServiceApp,
    ServiceBackend,
    in_process_transport,
)

SMALL = SweepConfig(
    temperatures=(0.1, 0.5),
    completions_per_prompt=(2,),
    levels=(PromptLevel.LOW,),
    problem_numbers=(1, 2),
)


@pytest.fixture()
def app():
    return ServiceApp(Session(backend="zoo"))


@pytest.fixture()
def client(app):
    return ServiceBackend(transport=in_process_transport(app))


class TestServiceApp:
    def test_health(self, app):
        status, body = app.handle("GET", "/health")
        assert status == 200
        assert body["status"] == "ok"
        assert body["backend"] == "zoo"
        assert body["models"] == 11

    def test_models(self, app):
        status, body = app.handle("GET", "/models")
        assert status == 200
        assert "codegen-16b-ft" in body["models"]

    def test_capabilities_includes_identity(self, app):
        status, body = app.handle(
            "POST", "/capabilities", {"model": "j1-large-7b-ft"}
        )
        assert status == 200
        assert body["supports_n25"] is False
        assert body["max_tokens"] == 256
        assert body["base_model"] == "j1-large-7b"
        assert body["fine_tuned"] is True

    def test_generate(self, app):
        from repro.problems import get_problem

        status, body = app.handle(
            "POST",
            "/generate",
            {
                "model": "codegen-6b-ft",
                "prompt": get_problem(1).prompt(PromptLevel.LOW),
                "config": {"temperature": 0.1, "n": 3},
            },
        )
        assert status == 200
        assert len(body["completions"]) == 3
        assert all("text" in c for c in body["completions"])

    def test_unknown_route_404(self, app):
        status, body = app.handle("GET", "/teapot")
        assert status == 404
        assert "no route" in body["error"]

    def test_unknown_model_400(self, app):
        status, body = app.handle("POST", "/capabilities", {"model": "gpt-9"})
        assert status == 400
        assert "does not serve" in body["error"]

    def test_bad_config_400(self, app):
        status, body = app.handle(
            "POST",
            "/generate",
            {
                "model": "codegen-6b-ft",
                "prompt": "module m();",
                "config": {"temperature": -1.0},
            },
        )
        assert status == 400
        assert "temperature" in body["error"]

    def test_missing_field_400(self, app):
        status, body = app.handle("POST", "/generate", {"model": "x"})
        assert status == 400

    @pytest.mark.parametrize("payload", [[1, 2], "model", 7])
    def test_non_object_body_400(self, app, payload):
        status, body = app.handle("POST", "/generate", payload)
        assert status == 400
        assert "must be an object" in body["error"]

    def test_trailing_slash_tolerated(self, app):
        status, _ = app.handle("GET", "/models/")
        assert status == 200


class TestServiceBackend:
    def test_registered_in_registry(self):
        assert "service" in available_backends()
        backend = create_backend("service", url="http://127.0.0.1:1")
        assert isinstance(backend, ServiceBackend)

    def test_models_and_capabilities(self, client):
        assert "codegen-16b-ft" in client.models()
        caps = client.capabilities("j1-large-7b-ft")
        assert caps.supports_n25 is False and caps.max_tokens == 256
        assert client.identity("codegen-16b-ft") == ("codegen-16b", True)

    def test_capabilities_cached(self, app):
        calls = []
        inner = in_process_transport(app)

        def transport(method, path, payload=None):
            calls.append(path)
            return inner(method, path, payload)

        backend = ServiceBackend(transport=transport)
        backend.capabilities("codegen-6b-ft")
        backend.identity("codegen-6b-ft")
        backend.capabilities("codegen-6b-ft")
        assert calls.count("/capabilities") == 1

    def test_generate_matches_local_backend(self, client):
        from repro.problems import get_problem

        prompt = get_problem(1).prompt(PromptLevel.LOW)
        config = GenerationConfig(temperature=0.1, n=3)
        local = create_backend("zoo").generate("codegen-6b-ft", prompt, config)
        remote = client.generate("codegen-6b-ft", prompt, config)
        assert [c.text for c in local] == [c.text for c in remote]

    def test_sweep_through_service_matches_local(self, client):
        """Acceptance: ServiceBackend sweep == local-backend sweep."""
        models = ["codegen-6b-ft", "j1-large-7b-ft"]
        local = Session(backend="zoo").run_sweep(SMALL, models=models)
        remote = Session(backend=client, workers=4).run_sweep(
            SMALL, models=models
        )
        assert remote.sweep.records == local.sweep.records
        assert remote.skipped == local.skipped
        assert remote.errors == local.errors

    def test_unknown_model_surfaces_as_backend_error(self, client):
        with pytest.raises(BackendError, match="does not serve"):
            client.generate("gpt-9", "module m();", GenerationConfig(n=1))

    def test_unreachable_server_raises_backend_error(self):
        backend = ServiceBackend(url="http://127.0.0.1:9", timeout=0.2)
        with pytest.raises(BackendError, match="cannot reach"):
            backend.models()

    def test_malformed_response_is_not_a_connection_error(self):
        """A 200 whose body is not JSON (wrong port, proxy error page)
        must report "malformed response", not "cannot reach"."""
        import threading
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        class NotJSONHandler(BaseHTTPRequestHandler):
            def do_GET(self):
                body = b"<html>totally not the eval service</html>"
                self.send_response(200)
                self.send_header("Content-Type", "text/html")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), NotJSONHandler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            backend = ServiceBackend(
                url=f"http://127.0.0.1:{server.server_address[1]}",
                timeout=2.0,
            )
            with pytest.raises(BackendError, match="malformed response") as exc:
                backend.models()
            assert "totally not the eval service" in str(exc.value)
            assert "cannot reach" not in str(exc.value)
        finally:
            server.shutdown()
            server.server_close()

    def test_truncated_body_is_a_connection_error(self):
        """A body cut short of its Content-Length must surface as
        ServiceUnreachableError (retried, and understood by run_worker),
        not a raw http.client.IncompleteRead — for the JSON transport
        and for the ``repro top`` poll alike."""
        import socket
        import threading

        from repro.obs import fetch_view
        from repro.service import ServiceUnreachableError, http_transport

        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(5)

        def serve():
            # one transport call, then fetch_view's two polls
            for _ in range(3):
                conn, _ = listener.accept()
                with conn:
                    request = b""
                    while b"\r\n\r\n" not in request:
                        chunk = conn.recv(4096)
                        if not chunk:
                            break
                        request += chunk
                    conn.sendall(
                        b"HTTP/1.1 200 OK\r\n"
                        b"Content-Type: application/json\r\n"
                        b"Content-Length: 100\r\n\r\n"
                        b'{"status": '  # 11 of the promised 100 bytes
                    )

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        url = f"http://127.0.0.1:{listener.getsockname()[1]}"
        try:
            with pytest.raises(ServiceUnreachableError, match="interrupted"):
                http_transport(url, timeout=5)("GET", "/health")
            view = fetch_view(url, timeout=5)
        finally:
            listener.close()
            thread.join(timeout=5)
        assert view["metrics"] is None and view["status"] is None
        assert [e.split(":")[0] for e in view["errors"]] == [
            "/metrics", "/shard/status"
        ]


class TestEvalServiceHTTP:
    def test_real_http_round_trip(self):
        session = Session(backend="zoo")
        with AsyncEvalService(session, port=0) as service:
            backend = ServiceBackend(url=service.url)
            assert backend.health()["status"] == "ok"
            local = Session(backend="zoo").run_sweep(
                SMALL, models=["codegen-6b-ft"]
            )
            with Session(backend=backend) as remote_session:  # closes it
                remote = remote_session.run_sweep(
                    SMALL, models=["codegen-6b-ft"]
                )
        assert remote.sweep.records == local.sweep.records

    def test_http_error_status(self):
        with AsyncEvalService(Session(backend="zoo"), port=0) as service:
            backend = ServiceBackend(url=service.url)
            try:
                with pytest.raises(BackendError, match="400"):
                    backend.capabilities("gpt-9")
            finally:
                backend.close()

    @pytest.mark.parametrize("body", [b"[1, 2]", b'"model"', b"7"])
    def test_non_object_body_400_over_http(self, body):
        import json
        import urllib.error
        import urllib.request

        with AsyncEvalService(Session(backend="zoo"), port=0) as service:
            request = urllib.request.Request(
                service.url + "/generate", data=body,
                headers={"Content-Type": "application/json"}, method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 400
        assert "must be an object" in json.loads(excinfo.value.read())["error"]

    def test_stop_is_idempotent(self):
        service = AsyncEvalService(Session(backend="stub"), port=0)
        service.start()
        service.stop()
        service.stop()


class TestProcessPoolExecutor:
    def test_parity_with_thread_executor(self):
        backend = create_backend("zoo")
        plan = SweepPlanner(backend).plan(
            SMALL, models=["codegen-6b-ft", "j1-large-7b-ft"]
        )
        serial = SweepExecutor(backend).run(plan)
        process = ProcessPoolSweepExecutor(backend, workers=2).run(plan)
        assert process.sweep.records == serial.sweep.records
        assert process.errors == serial.errors
        assert process.stats["executor"] == "process"

    def test_progress_fires_in_plan_order(self):
        backend = StubBackend()
        plan = SweepPlanner(backend).plan(
            SweepConfig(
                temperatures=(0.1,),
                completions_per_prompt=(1,),
                levels=(PromptLevel.LOW,),
                problem_numbers=(1, 2, 3),
            )
        )
        seen = []
        ProcessPoolSweepExecutor(
            backend, workers=2, progress=lambda d, t, j: seen.append((d, j.problem))
        ).run(plan)
        assert seen == [(1, 1), (2, 2), (3, 3)]

    def test_unpicklable_backend_rejected_up_front(self):
        backend = StubBackend()
        backend.hook = lambda: None  # closures don't pickle
        with pytest.raises(BackendError, match="not picklable"):
            ProcessPoolSweepExecutor(backend, workers=2)

    def test_workers_validated(self):
        with pytest.raises(ValueError):
            ProcessPoolSweepExecutor(StubBackend(), workers=0)

    def test_empty_plan_short_circuits(self):
        from repro.eval import SweepPlan

        result = ProcessPoolSweepExecutor(StubBackend(), workers=2).run(
            SweepPlan()
        )
        assert len(result.sweep) == 0
        assert result.stats["jobs"] == 0


class TestSessionServiceEntrypoints:
    def test_session_executor_validation(self):
        with pytest.raises(ValueError, match="unknown executor"):
            Session(backend="stub", executor="quantum")

    def test_session_process_executor(self):
        models = ["codegen-6b-ft"]
        thread = Session(backend="zoo").run_sweep(SMALL, models=models)
        process = Session(
            backend="zoo", executor="process", workers=2
        ).run_sweep(SMALL, models=models)
        assert process.sweep.records == thread.sweep.records

    def test_session_serve_returns_service(self):
        service = Session(backend="stub").serve(port=0)
        assert isinstance(service, AsyncEvalService)
        assert service.app.session.backend.name == "stub"
        url = service.start()
        try:
            assert url.startswith("http://127.0.0.1:")
            backend = ServiceBackend(url=url)
            assert backend.health()["status"] == "ok"
            backend.close()
        finally:
            service.stop()

    def test_session_plan_shards(self):
        shards = Session(backend="zoo").plan_shards(
            3, SMALL, models=["codegen-6b-ft"]
        )
        assert len(shards) == 3
        assert sum(len(s.plan.jobs) for s in shards) == 2 * 2  # problems x temps


class TestProcessPoolCacheStats:
    """Satellite regression: ProcessPoolSweepExecutor used to hardcode
    ``evaluator_cache: {}``, so store_hits from worker processes were
    invisible to the coordinator and /shard/status reported 0."""

    def test_worker_cache_stats_are_collected(self):
        backend = create_backend("stub-canonical")
        plan = SweepPlanner(backend).plan(SMALL)
        result = ProcessPoolSweepExecutor(backend, workers=2).run(plan)
        cache = result.stats["evaluator_cache"]
        assert cache, "evaluator_cache must not be the hardcoded {}"
        assert cache["misses"] > 0  # cold caches really did evaluate

    def test_warm_store_hits_surface_in_stats(self, tmp_path):
        from repro.eval import VerdictStore

        store = VerdictStore(str(tmp_path))
        backend = create_backend("stub-canonical")
        plan = SweepPlanner(backend).plan(SMALL)
        cold = ProcessPoolSweepExecutor(
            backend, workers=2, store=store
        ).run(plan)
        assert cold.stats["evaluator_cache"]["misses"] > 0
        warm = ProcessPoolSweepExecutor(
            backend, workers=2, store=store
        ).run(plan)
        assert warm.stats["evaluator_cache"]["store_hits"] > 0
        assert warm.stats["evaluator_cache"]["misses"] == 0
        assert warm.sweep.records == cold.sweep.records

    def test_coordinator_status_store_hits_for_process_fleet(self, tmp_path):
        """Acceptance: /shard/status store_hits is nonzero for a
        warm-store --executor process worker fleet."""
        from repro.service import ShardCoordinator, run_worker

        store_dir = str(tmp_path / "verdicts")
        # warm the shared store with one serial run
        with Session(backend="stub-canonical", store=store_dir) as warm:
            warm.run_sweep(SMALL)

        worker_session = Session(
            backend="stub-canonical",
            executor="process",
            workers=2,
            store=store_dir,
        )
        coordinator = ShardCoordinator(
            worker_session.plan_shards(2, SMALL), lease_seconds=60
        )
        run_worker(
            transport=in_process_transport(
                ServiceApp(worker_session, coordinator=coordinator)
            ),
            session=worker_session,
            max_idle_polls=3,
        )
        status = ServiceApp(
            worker_session, coordinator=coordinator
        ).handle("GET", "/shard/status")[1]
        assert status["store_hits"] > 0
        assert coordinator.result().stats["evaluator_cache"][
            "store_hits"
        ] > 0
