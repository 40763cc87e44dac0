"""Client side of the eval service: a Backend that speaks the wire API.

:class:`ServiceBackend` makes a remote eval server look like any other
registered backend — ``Session(backend="service", ...)`` or
``--backend service --url http://host:port`` on the CLI — so the sweep
planner/executor stack needs no remote-awareness at all: capabilities,
identity and generation all round-trip through the server's JSON routes.

The transport is injectable (``transport(method, path, payload) ->
response dict``).  The default is a ``urllib`` client bound to ``url``;
tests and same-process embedding use :func:`in_process_transport`, which
calls a :class:`~repro.service.server.ServiceApp` directly — the full
request/validation/serialization path, no sockets.  All transport-level
failures surface as :class:`~repro.backends.base.BackendError`, which is
exactly what the executor's :class:`~repro.eval.jobs.RetryPolicy` treats
as transient.

:func:`run_worker` is the other client role: a pull-based shard worker
that loops ``/shard/next`` → execute locally → ``/shard/result``
against a :class:`~repro.service.coordinator.ShardCoordinator` until
the coordinator reports the whole sweep merged.
"""

from __future__ import annotations

import json
import os
import socket
import time
import urllib.error
import urllib.request
from typing import Callable, Sequence

from ..models.base import Completion, GenerationConfig
from ..backends.base import Backend, BackendError, ModelCapabilities
from ..obs import REGISTRY

Transport = Callable[[str, str, "dict | None"], dict]

DEFAULT_URL = "http://127.0.0.1:8076"


class ServiceUnreachableError(BackendError):
    """Connection-class failure: nothing answered at the service URL.

    Distinct from an HTTP error status or a malformed body (the server
    *did* answer those), so callers like :func:`run_worker` can decide
    "the coordinator is gone" without swallowing real request errors.
    """


def http_transport(base_url: str, timeout: float = 30.0) -> Transport:
    """A urllib-based transport bound to ``base_url``.

    Failure classes stay distinct: an unreachable server reports
    "cannot reach", an HTTP error status carries the server's error
    detail, and a 200 whose body is not valid JSON reports "malformed
    response" with a body snippet — a proxy or wrong port answering
    with HTML must not masquerade as a connection problem.
    """

    def call(method: str, path: str, payload: dict | None = None) -> dict:
        url = base_url.rstrip("/") + path
        data = None if payload is None else json.dumps(payload).encode()
        request = urllib.request.Request(
            url,
            data=data,
            headers={"Content-Type": "application/json"},
            method=method,
        )
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                body = response.read()
        except urllib.error.HTTPError as exc:
            try:
                detail = json.loads(exc.read().decode("utf-8"))["error"]
            except Exception:  # noqa: BLE001 — body may not be our JSON
                detail = str(exc)
            raise BackendError(
                f"eval service {exc.code} on {path}: {detail}"
            ) from None
        except (urllib.error.URLError, OSError, ValueError) as exc:
            # ValueError here is urlopen rejecting the URL itself
            # (unknown scheme etc.), not a body-decoding problem
            raise ServiceUnreachableError(
                f"cannot reach eval service at {base_url}: {exc}"
            ) from None
        try:
            return json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            snippet = body[:120].decode("utf-8", errors="replace")
            raise BackendError(
                f"malformed response from {base_url}{path}: {exc} "
                f"(body starts: {snippet!r})"
            ) from None

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

    def generate_batch(
        self,
        model: str,
        requests: Sequence[tuple[str, GenerationConfig]],
    ) -> list[list[Completion]]:
        """Forward a whole batch through ``POST /generate_batch``.

        One HTTP round-trip serves N jobs (the base-class default would
        silently degrade batching into N ``/generate`` calls).  Against
        an older server without the route — or any transport failure —
        it falls back to the per-request loop, so the executor's per-job
        error isolation and retry accounting still apply.
        """
        if len(requests) <= 1:
            return super().generate_batch(model, requests)
        payload = {
            "model": model,
            "requests": [
                {"prompt": prompt, "config": self._config_row(config)}
                for prompt, config in requests
            ],
        }
        try:
            response = self._transport("POST", "/generate_batch", payload)
        except BackendError:
            return super().generate_batch(model, requests)
        batches = [
            [self._completion(c) for c in batch]
            for batch in response["batches"]
        ]
        if len(batches) != len(requests):
            raise BackendError(
                f"generate_batch returned {len(batches)} batches "
                f"for {len(requests)} requests"
            )
        return batches

    def run_remote_sweep(
        self,
        config=None,
        models: Sequence[str] | None = None,
    ):
        """Execute a whole sweep server-side via POST /sweep.

        Unlike :meth:`generate` (per-job traffic planned client-side),
        this ships the config across and deserializes the full
        :class:`~repro.eval.jobs.SweepResult` — one request, the
        server's worker pool does the fan-out.
        """
        from ..eval.export import config_to_dict, sweep_result_from_dict

        payload: dict = {}
        if config is not None:
            payload["config"] = config_to_dict(config)
        if models is not None:
            payload["models"] = list(models)
        return sweep_result_from_dict(
            self._transport("POST", "/sweep", payload)
        )


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
    executor, so ``Session(executor="async")`` fans each leased unit's
    jobs out as coroutines.

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
