"""Client side of the eval service: the one HTTP client.

:class:`ServiceBackend` makes a remote eval server look like any other
registered backend — ``Session(backend="service", ...)`` or
``--backend service --url http://host:port`` on the CLI — so the sweep
planner/executor stack needs no remote-awareness at all: capabilities,
identity and generation all round-trip through the server's JSON routes.

The transport is injectable (``transport(method, path, payload) ->
response dict``).  The default is :func:`http_transport`, bound to
``url``; tests and same-process embedding use
:func:`in_process_transport`, which calls a
:class:`~repro.service.server.ServiceApp` directly — the full
request/validation/serialization path, no sockets.  All transport-level
failures surface as :class:`~repro.backends.base.BackendError`, which is
exactly what the executor's :class:`~repro.eval.jobs.RetryPolicy` treats
as transient.

:func:`run_worker` is the other client role: a pull-based shard worker
that loops ``/shard/next`` → execute locally → ``/shard/result``
against a :class:`~repro.service.coordinator.ShardCoordinator` until
the coordinator reports the whole sweep merged.

:func:`iter_sweep_events` / :func:`stream_sweep` run a whole sweep
server-side: they consume the NDJSON route ``POST /sweep/stream`` line
by line as the server writes it.  A plain ``for`` loop observes a sweep
live; abandoning the generator closes the connection, which the server
takes as the signal to cancel every in-flight job.

Every request — JSON round trip, event stream, and the ``repro top``
poll of ``GET /shard/status`` — goes through one ``http.client``
helper, so all of them fail the same way (see :func:`http_transport`).
JSON calls keep one connection per thread open across requests; each
event stream opens its own and closes it when the stream ends.
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import threading
import time
import urllib.parse
from typing import Callable, Iterator

from ..models.base import Completion, GenerationConfig
from ..backends.base import Backend, BackendError, ModelCapabilities
from ..eval.export import config_to_dict
from ..eval.jobs import SweepResult
from ..obs import REGISTRY
from .aio.events import assemble_stream_result, decode_stream

Transport = Callable[[str, str, "dict | None"], dict]

DEFAULT_URL = "http://127.0.0.1:8076"


class ServiceUnreachableError(BackendError):
    """Connection-class failure: nothing answered at the service URL.

    Distinct from an HTTP error status or a malformed body (the server
    *did* answer those), so callers like :func:`run_worker` can decide
    "the coordinator is gone" without swallowing real request errors.
    """


def _connect(base_url: str, timeout: float) -> http.client.HTTPConnection:
    """A connection to the service at ``base_url``; it opens its socket
    on the first request, and again on the next request after a close."""
    try:
        parts = urllib.parse.urlsplit(base_url)
        port = parts.port
    except ValueError as exc:
        raise ServiceUnreachableError(
            f"cannot reach eval service at {base_url}: {exc}"
        ) from None
    if parts.scheme not in _CONNECTION_CLASSES or not parts.hostname:
        raise ServiceUnreachableError(
            f"cannot reach eval service at {base_url}: not an http(s) URL"
        )
    return _CONNECTION_CLASSES[parts.scheme](
        parts.hostname, port, timeout=timeout
    )


_CONNECTION_CLASSES = {
    "http": http.client.HTTPConnection,
    "https": http.client.HTTPSConnection,
}


def _request(
    connection: http.client.HTTPConnection,
    base_url: str,
    method: str,
    path: str,
    payload: "dict | None",
) -> http.client.HTTPResponse:
    """Send one request on ``connection``; return its 2xx response,
    body unread.

    A kept-alive connection the server has closed since its last
    request (idle close, restart) fails before any response byte
    arrives; that request is sent once more on a fresh connection.  An
    HTTP error status raises :class:`BackendError` with the server's
    error detail; nothing answering raises
    :class:`ServiceUnreachableError`.  Every failure closes
    ``connection``, so its next request starts on a fresh socket.
    """
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    target = urllib.parse.urlsplit(base_url).path.rstrip("/") + path
    for fresh in (connection.sock is None, True):
        try:
            connection.request(
                method, target, body=data,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            break
        except (OSError, http.client.HTTPException) as exc:
            connection.close()
            if fresh or not isinstance(exc, ConnectionError):
                raise ServiceUnreachableError(
                    f"cannot reach eval service at {base_url}: {exc}"
                ) from None
    if 200 <= response.status < 300:
        return response
    body = _read(connection, response, base_url, path, response.read)
    try:
        detail = json.loads(body.decode("utf-8"))["error"]
    except Exception:  # noqa: BLE001 — body may not be our JSON
        detail = f"HTTP Error {response.status}: {response.reason}"
    raise BackendError(f"eval service {response.status} on {path}: {detail}")


def _read(connection, response, base_url: str, path: str, read) -> bytes:
    """``read()`` from ``response``; a connection cut or short body
    closes ``connection`` and raises :class:`ServiceUnreachableError`."""
    try:
        return read()
    except (OSError, ValueError, http.client.HTTPException) as exc:
        connection.close()
        response.close()
        raise ServiceUnreachableError(
            f"response from {base_url}{path} interrupted: "
            f"{exc or type(exc).__name__}"
        ) from None


def http_transport(base_url: str, timeout: float = 30.0) -> Transport:
    """A JSON transport bound to ``base_url``.

    Each thread that calls it keeps one connection open and sends its
    requests over it in turn, so executor threads sharing one
    :class:`ServiceBackend` never share a socket.  ``call.close()``
    closes every connection the transport opened, whichever thread
    opened it (a later call reconnects); a connection whose thread has
    ended is closed when the next thread connects.

    Failure classes stay distinct: an unreachable server — or one that
    cuts the response short — reports "cannot reach"/"interrupted" as
    :class:`ServiceUnreachableError`, an HTTP error status carries the
    server's error detail, and a 200 whose body is not valid JSON
    reports "malformed response" with a body snippet — a proxy or wrong
    port answering with HTML must not masquerade as a connection
    problem.
    """
    #: thread -> its connection; written only under ``lock``
    connections: dict[threading.Thread, http.client.HTTPConnection] = {}
    lock = threading.Lock()

    def call(method: str, path: str, payload: dict | None = None) -> dict:
        thread = threading.current_thread()
        connection = connections.get(thread)
        if connection is None:
            connection = _connect(base_url, timeout)
            with lock:
                for ended in [t for t in connections if not t.is_alive()]:
                    connections.pop(ended).close()
                connections[thread] = connection
        response = _request(connection, base_url, method, path, payload)
        body = _read(connection, response, base_url, path, response.read)
        try:
            return json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            snippet = body[:120].decode("utf-8", errors="replace")
            raise BackendError(
                f"malformed response from {base_url}{path}: {exc} "
                f"(body starts: {snippet!r})"
            ) from None

    def close() -> None:
        with lock:
            for connection in connections.values():
                connection.close()

    call.close = close
    return call


def in_process_transport(app) -> Transport:
    """Drive a :class:`ServiceApp` directly — offline, full wire schema."""

    def call(method: str, path: str, payload: dict | None = None) -> dict:
        status, body = app.handle(method, path, payload)
        if status >= 400:
            raise BackendError(
                f"eval service {status} on {path}: "
                f"{body.get('error', body)}"
            )
        return body

    return call


class ServiceBackend(Backend):
    """Backend adapter over a (remote or in-process) eval service."""

    name = "service"

    def __init__(
        self,
        url: str = DEFAULT_URL,
        transport: Transport | None = None,
        timeout: float = 30.0,
    ):
        self.url = url
        self._transport = transport or http_transport(url, timeout)
        self._described: dict[str, dict] = {}

    def close(self) -> None:
        """Close the transport's connections (a later call reconnects)."""
        close = getattr(self._transport, "close", None)
        if close is not None:
            close()

    # ------------------------------------------------------------------
    def health(self) -> dict:
        """The server's /health payload (raises BackendError if down)."""
        return self._transport("GET", "/health", None)

    def models(self) -> list[str]:
        return list(self._transport("GET", "/models", None)["models"])

    def _describe(self, model: str) -> dict:
        cached = self._described.get(model)
        if cached is None:
            cached = self._transport("POST", "/capabilities", {"model": model})
            self._described[model] = cached
        return cached

    def capabilities(self, model: str) -> ModelCapabilities:
        described = self._describe(model)
        return ModelCapabilities(
            supports_n25=bool(described["supports_n25"]),
            max_tokens=int(described["max_tokens"]),
        )

    def identity(self, model: str) -> tuple[str, bool]:
        described = self._describe(model)
        return described["base_model"], bool(described["fine_tuned"])

    @staticmethod
    def _config_row(config: GenerationConfig) -> dict:
        return {
            "temperature": config.temperature,
            "n": config.n,
            "max_tokens": config.max_tokens,
            "top_p": config.top_p,
        }

    @staticmethod
    def _completion(row: dict) -> Completion:
        return Completion(
            text=row["text"],
            inference_seconds=float(row.get("inference_seconds", 0.0)),
            tokens=int(row.get("tokens", 0)),
        )

    def generate(
        self, model: str, prompt: str, config: GenerationConfig
    ) -> list[Completion]:
        response = self._transport(
            "POST",
            "/generate",
            {
                "model": model,
                "prompt": prompt,
                "config": self._config_row(config),
            },
        )
        return [self._completion(c) for c in response["completions"]]


# ----------------------------------------------------------------------
# Pull-based shard worker (the client half of the coordinator)
# ----------------------------------------------------------------------
def default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


def run_worker(
    url: str | None = None,
    transport: Transport | None = None,
    session=None,
    worker_id: str | None = None,
    poll_seconds: float = 0.5,
    sleep: Callable[[float], None] = time.sleep,
    max_idle_polls: int | None = None,
    telemetry_seconds: float | None = 2.0,
) -> dict:
    """Pull shards from a coordinator until it reports the sweep done.

    The worker needs no index bookkeeping: it leases whatever shard the
    coordinator serves next (``POST /shard/next``), executes the shard's
    plan on its *local* session (backend, executor, workers, verdict
    store — all the worker's own configuration), and submits the result
    (``POST /shard/result``), where the coordinator merges it inline.
    When no shard is pending but others are still leased, the worker
    naps ``min(retry_after, poll_seconds)`` and asks again — it picks up
    any lease that expires.  ``max_idle_polls`` bounds those naps for
    tests and batch jobs (``None`` = wait as long as it takes);
    ``poll_seconds`` must be positive.  Units run on the session's
    executor, so ``Session(workers=N)`` keeps N of each leased unit's
    jobs in flight on threads.

    Returns a summary dict: shards run, jobs, records, errors, plus
    ``coordinator_gone=True`` if a coordinator this worker had already
    reached vanished between polls (it finished and stopped serving, or
    was shut down) — that ends the loop cleanly rather than erroring.

    Every ``telemetry_seconds`` (``None``/``0`` disables) the worker
    pushes its metrics-registry deltas to the coordinator's
    ``POST /telemetry`` route so one scrape of the coordinator covers
    the fleet; telemetry is strictly best-effort and can neither slow
    down nor fail the work loop.
    """
    if poll_seconds <= 0:
        raise ValueError("poll_seconds must be > 0")
    if transport is None:
        if url is None:
            raise ValueError("run_worker needs a coordinator url or transport")
        transport = http_transport(url)
        try:
            return run_worker(
                transport=transport, session=session, worker_id=worker_id,
                poll_seconds=poll_seconds, sleep=sleep,
                max_idle_polls=max_idle_polls,
                telemetry_seconds=telemetry_seconds,
            )
        finally:
            transport.close()
    if session is None:
        from ..api import Session

        session = Session()
    from ..eval.export import sweep_result_to_dict
    from ..obs.collect import TelemetryPusher
    from .sharding import shard_from_dict

    worker_id = worker_id or default_worker_id()
    pusher = None
    if telemetry_seconds:
        pusher = TelemetryPusher(
            lambda payload: transport("POST", "/telemetry", payload),
            worker_id,
            interval=telemetry_seconds,
        )
    summary = {
        "worker_id": worker_id,
        "shards": 0,
        "jobs": 0,
        "records": 0,
        "errors": 0,
        "idle_polls": 0,
        "coordinator_gone": False,
    }
    idle = 0
    contacted = False
    while True:
        try:
            response = transport(
                "POST", "/shard/next", {"worker_id": worker_id}
            )
        except ServiceUnreachableError:
            # a coordinator we had already reached has gone away while we
            # held no work: it finished (and stopped serving) or was shut
            # down — either way there is nothing left for this worker.
            # Never having reached it at all is a real error, as is any
            # answered-but-failed request (HTTP status, malformed body).
            if not contacted:
                raise
            summary["coordinator_gone"] = True
            break
        contacted = True
        if pusher is not None:
            pusher.maybe_push()
        if response.get("done"):
            break
        if response.get("shard") is None:
            idle += 1
            summary["idle_polls"] += 1
            if max_idle_polls is not None and idle >= max_idle_polls:
                break
            sleep(
                min(float(response.get("retry_after") or poll_seconds),
                    poll_seconds)
            )
            continue
        idle = 0
        shard = shard_from_dict(response["shard"])
        REGISTRY.inc("worker_units_leased", worker=worker_id)
        result = session.run_plan(shard.plan)
        payload = {
            "lease_id": response["lease_id"],
            "shard_index": shard.shard_index,
            "result": sweep_result_to_dict(result),
        }
        # the submit is the one request whose loss wastes real work (a
        # whole executed shard would sit out the lease and re-run), so
        # retry connection blips a few times before giving up; answered
        # failures (HTTP status, malformed body) still raise immediately
        for attempt in range(5):
            try:
                ack = transport("POST", "/shard/result", payload)
                break
            except ServiceUnreachableError:
                if attempt == 4:
                    raise
                sleep(max(poll_seconds, 0.1))
        REGISTRY.inc("worker_units_submitted", worker=worker_id)
        REGISTRY.inc(
            "worker_records_submitted", len(result.sweep), worker=worker_id
        )
        summary["shards"] += 1
        summary["jobs"] += len(shard.plan.jobs)
        summary["records"] += len(result.sweep)
        summary["errors"] += len(result.errors)
        if pusher is not None:
            pusher.maybe_push()
        if ack.get("done"):
            # this submission completed the sweep — exit now rather
            # than racing a coordinator that may stop serving
            break
    if pusher is not None and not summary["coordinator_gone"]:
        # flush whatever accumulated since the last interval so short
        # runs still land one complete push before the worker exits
        pusher.push()
    return summary


# ----------------------------------------------------------------------
# Streaming sweep client (NDJSON event frames)
# ----------------------------------------------------------------------
def _sweep_payload(
    config=None,
    models=None,
    concurrency: "int | None" = None,
) -> dict:
    payload: dict = {}
    if config is not None:
        payload["config"] = config_to_dict(config)
    if models is not None:
        payload["models"] = list(models)
    if concurrency is not None:
        payload["concurrency"] = int(concurrency)
    return payload


def _iter_frames(
    url: str, method: str, path: str, payload: "dict | None", timeout: float
) -> Iterator[dict]:
    """Decoded frames of a streaming route, as they arrive.

    :func:`~repro.service.aio.events.decode_stream` is forward-compatible:
    a frame with an event name this client predates flows through for
    reassembly to ignore, instead of failing a live sweep.
    """
    connection = _connect(url, timeout)
    try:
        response = _request(connection, url, method, path, payload)
        with response:
            yield from decode_stream(iter(
                lambda: _read(connection, response, url, path,
                              response.readline),
                b"",
            ))
    finally:
        connection.close()


def iter_sweep_events(
    url: str,
    config=None,
    models=None,
    concurrency: "int | None" = None,
    timeout: float = 300.0,
) -> Iterator[dict]:
    """Yield decoded frames from ``POST /sweep/stream`` as they arrive.

    Frames surface live (the HTTP response is close-delimited NDJSON, so
    iteration blocks only until the *next* line, not the whole sweep).
    Dropping the generator early closes the connection — the server
    cancels the sweep's in-flight jobs.
    """
    yield from _iter_frames(
        url, "POST", "/sweep/stream",
        _sweep_payload(config, models, concurrency), timeout,
    )


def stream_sweep(
    url: str,
    config=None,
    models=None,
    on_event: "Callable[[dict], None] | None" = None,
    concurrency: "int | None" = None,
    timeout: float = 300.0,
) -> SweepResult:
    """Run a remote sweep via the stream route; return the full result.

    Every frame is forwarded to ``on_event`` as it lands (progress
    rendering), and the stream is reassembled against its lossless
    terminal frame — a cut or inconsistent stream raises
    :class:`~repro.service.aio.events.StreamProtocolError` instead of
    returning partial data.
    """
    frames = []
    for frame in iter_sweep_events(
        url, config=config, models=models, concurrency=concurrency,
        timeout=timeout,
    ):
        if on_event is not None:
            on_event(frame)
        frames.append(frame)
    return assemble_stream_result(frames)
