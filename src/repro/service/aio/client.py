"""Streaming sweep client: consume NDJSON event streams, reassemble.

Two consumption styles over the same wire protocol
(:mod:`~repro.service.aio.events`):

* sync generators (:func:`iter_sweep_events`, :func:`iter_status_events`)
  over ``urllib`` — the response body streams line by line as the server
  produces it, so a plain ``for`` loop observes a sweep live with no
  asyncio in sight (the CLI ``sweep --stream`` path);
* async generators (:func:`aiter_sweep_events`) over the non-blocking
  :mod:`~repro.service.aio.transport` for callers already in a loop.

:func:`stream_sweep` / :func:`astream_sweep` are the one-call versions:
consume the whole stream (forwarding every frame to an observer
callback) and reassemble the terminal-validated
:class:`~repro.eval.jobs.SweepResult` via
:func:`~repro.service.aio.events.assemble_stream_result` — lossless, so
the streamed records match a serial run byte-for-byte once exported.

Abandoning either generator mid-stream closes the connection, which the
server takes as the signal to cancel every in-flight job.

The module also holds the asyncio worker fleet: :func:`run_worker_async`
is the coroutine sibling of :func:`~repro.service.client.run_worker`
that keeps several leased work units in flight at once and submits each
over the streamed-upload route (:func:`submit_result_stream`) as its
jobs finish — falling back to the blocking submit when the coordinator
does not speak the stream, so executed work is never thrown away.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import urllib.error
import urllib.request
from typing import AsyncIterator, Callable, Iterator
from urllib.parse import quote

from ..client import ServiceUnreachableError, default_worker_id
from ...backends.base import BackendError
from ...eval.export import config_to_dict
from ...eval.jobs import SweepResult
from .events import assemble_stream_result, decode_frame, encode_frame
from .executor import AsyncSweepExecutor
from .transport import (
    close_writer,
    open_stream,
    open_upload,
    read_upload_response,
    request_json,
)


def _sweep_payload(
    config=None,
    models=None,
    concurrency: "int | None" = None,
    batch_size: "int | None" = None,
) -> dict:
    payload: dict = {}
    if config is not None:
        payload["config"] = config_to_dict(config)
    if models is not None:
        payload["models"] = list(models)
    if concurrency is not None:
        payload["concurrency"] = int(concurrency)
    if batch_size is not None:
        payload["batch_size"] = int(batch_size)
    return payload


def _open_sync(
    url: str, method: str, path: str, payload: "dict | None", timeout: float
):
    """urllib request against a streaming route; returns the response."""
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url.rstrip("/") + path,
        data=data,
        headers={"Content-Type": "application/json"},
        method=method,
    )
    try:
        return urllib.request.urlopen(request, timeout=timeout)
    except urllib.error.HTTPError as exc:
        try:
            detail = json.loads(exc.read().decode("utf-8"))["error"]
        except Exception:  # noqa: BLE001 — body may not be our JSON
            detail = str(exc)
        raise BackendError(
            f"eval service {exc.code} on {path}: {detail}"
        ) from None
    except (urllib.error.URLError, OSError, ValueError) as exc:
        raise ServiceUnreachableError(
            f"cannot reach eval service at {url}: {exc}"
        ) from None


def _iter_ndjson(response, url: str) -> Iterator[dict]:
    """Yield decoded frames from a live response; wrap transport faults.

    A timeout, reset or truncated chunk mid-body must surface as
    :class:`ServiceUnreachableError` (the sync transport's taxonomy),
    not a raw socket exception the CLI would traceback on.
    """
    with response:
        while True:
            try:
                line = response.readline()
            except (OSError, ValueError, http.client.HTTPException) as exc:
                raise ServiceUnreachableError(
                    f"event stream from {url} interrupted: "
                    f"{exc or type(exc).__name__}"
                ) from None
            if not line:
                return
            if line.strip():
                yield decode_frame(line)


def iter_sweep_events(
    url: str,
    config=None,
    models=None,
    concurrency: "int | None" = None,
    batch_size: "int | None" = None,
    timeout: float = 300.0,
) -> Iterator[dict]:
    """Yield decoded frames from ``POST /sweep/stream`` as they arrive.

    Frames surface live (the HTTP response is close-delimited NDJSON, so
    iteration blocks only until the *next* line, not the whole sweep).
    Dropping the generator early closes the connection — the server
    cancels the sweep's in-flight jobs.
    """
    response = _open_sync(
        url, "POST", "/sweep/stream",
        _sweep_payload(config, models, concurrency, batch_size), timeout,
    )
    yield from _iter_ndjson(response, url)


def stream_sweep(
    url: str,
    config=None,
    models=None,
    on_event: "Callable[[dict], None] | None" = None,
    concurrency: "int | None" = None,
    batch_size: "int | None" = None,
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
        batch_size=batch_size, timeout=timeout,
    ):
        if on_event is not None:
            on_event(frame)
        frames.append(frame)
    return assemble_stream_result(frames)


def iter_status_events(
    url: str,
    poll: "float | None" = None,
    timeout: float = 300.0,
) -> Iterator[dict]:
    """Yield coordinator status frames from ``GET /shard/status/stream``.

    One frame per progress change; the frame with ``complete == true``
    is the terminal — the server closes the stream after it.
    """
    path = "/shard/status/stream"
    if poll is not None:
        path += f"?poll={float(poll)}"
    response = _open_sync(url, "GET", path, None, timeout)
    yield from _iter_ndjson(response, url)


# ----------------------------------------------------------------------
# Async variants (callers already under an event loop)
# ----------------------------------------------------------------------
async def aiter_sweep_events(
    url: str,
    config=None,
    models=None,
    concurrency: "int | None" = None,
    batch_size: "int | None" = None,
    timeout: float = 300.0,
) -> AsyncIterator[dict]:
    """Async twin of :func:`iter_sweep_events`."""
    reader, writer = await open_stream(
        "POST",
        url.rstrip("/") + "/sweep/stream",
        _sweep_payload(config, models, concurrency, batch_size),
        timeout,
    )
    try:
        while True:
            try:
                # per-line deadline, matching the sync twin's socket
                # timeout: a wedged server raises instead of hanging
                line = await asyncio.wait_for(reader.readline(), timeout)
            except (OSError, ValueError, asyncio.TimeoutError) as exc:
                raise ServiceUnreachableError(
                    f"event stream from {url} interrupted: "
                    f"{exc or type(exc).__name__}"
                ) from None
            if not line:
                break
            if line.strip():
                yield decode_frame(line)
    finally:
        await close_writer(writer)


async def astream_sweep(
    url: str,
    config=None,
    models=None,
    on_event: "Callable[[dict], None] | None" = None,
    concurrency: "int | None" = None,
    batch_size: "int | None" = None,
    timeout: float = 300.0,
) -> SweepResult:
    """Async twin of :func:`stream_sweep`."""
    frames = []
    stream = aiter_sweep_events(
        url, config=config, models=models, concurrency=concurrency,
        batch_size=batch_size, timeout=timeout,
    )
    try:
        async for frame in stream:
            if on_event is not None:
                on_event(frame)
            frames.append(frame)
    finally:
        await stream.aclose()
    return assemble_stream_result(frames)


# ----------------------------------------------------------------------
# Asyncio worker fleet (the client half of the coordinator, streaming)
# ----------------------------------------------------------------------
def _submit_stream_url(url: str, lease_id: str) -> str:
    return (
        url.rstrip("/")
        + "/shard/result/stream?lease_id="
        + quote(str(lease_id), safe="")
    )


async def submit_result_stream(
    url: str,
    lease_id: str,
    frames,
    timeout: float = 300.0,
) -> dict:
    """Stream event frames to ``POST /shard/result/stream``; return the ack.

    ``frames`` is a sync or async iterable of frame dicts (e.g. an
    :meth:`AsyncSweepExecutor.stream` generator, or
    :func:`~repro.service.aio.events.result_to_frames` output for a
    result executed blockingly).  The coordinator merges the frames'
    partial progress live and answers the normal submit ack after the
    terminal ``done`` frame.  Failure taxonomy matches the blocking
    submit: answered errors raise ``BackendError``, a dead connection
    raises :class:`~repro.service.client.ServiceUnreachableError`.
    """
    reader, writer = await open_upload(
        "POST", _submit_stream_url(url, lease_id), timeout
    )
    try:
        try:
            if hasattr(frames, "__aiter__"):
                async for frame in frames:
                    writer.write(encode_frame(frame))
                    await writer.drain()
            else:
                for frame in frames:
                    writer.write(encode_frame(frame))
                    await writer.drain()
        except (OSError, asyncio.TimeoutError) as exc:
            raise ServiceUnreachableError(
                f"streamed submit to {url} interrupted: "
                f"{exc or type(exc).__name__}"
            ) from None
        return await read_upload_response(reader, url, timeout)
    finally:
        await close_writer(writer)


async def _run_leased_unit(
    url: str,
    session,
    response: dict,
    concurrency: int,
    summary: dict,
    timeout: float,
    poll_seconds: float,
) -> dict:
    """Execute one leased unit and submit it; returns the coordinator ack.

    Streamed submission is attempted first — frames reach the
    coordinator as jobs finish, so ``/shard/status`` shows the unit's
    partial progress — with every frame also buffered locally.  If the
    upload is refused or the connection dies mid-stream, the buffer
    reassembles into a result and falls back to the blocking
    ``/shard/result`` submit with blip retries: executed work is never
    thrown away.
    """
    from ..sharding import shard_from_dict
    from ...eval.export import sweep_result_to_dict

    shard = shard_from_dict(response["shard"])
    lease_id = response["lease_id"]
    executor = AsyncSweepExecutor(
        session.backend,
        evaluator=session.evaluator,
        concurrency=concurrency,
        retry=session.retry,
        batch_size=session.batch_size,
    )
    try:
        upload = await open_upload(
            "POST", _submit_stream_url(url, lease_id), timeout
        )
    except (BackendError, OSError):
        upload = None
    buffered: list[dict] = []
    ack = None
    try:
        stream = executor.stream(shard.plan)
        try:
            async for frame in stream:
                buffered.append(frame)
                if upload is not None:
                    try:
                        upload[1].write(encode_frame(frame))
                        await upload[1].drain()
                    except (OSError, asyncio.TimeoutError):
                        await close_writer(upload[1])
                        upload = None  # keep executing; submit blockingly
        finally:
            await stream.aclose()
        if upload is not None:
            try:
                ack = await read_upload_response(upload[0], url, timeout)
                summary["streamed"] += 1
            except (BackendError, ServiceUnreachableError):
                # the upload was refused, or hung up right at the
                # terminal: the blocking fallback answers it
                ack = None
    finally:
        # executor failures and task cancellation must not leak the
        # half-written upload: closing it frees the coordinator's
        # reader and clears its partial-progress counters
        if upload is not None:
            await close_writer(upload[1])
    if ack is None:
        result = assemble_stream_result(buffered)
        payload = {
            "lease_id": lease_id,
            "shard_index": shard.shard_index,
            "result": sweep_result_to_dict(result),
        }
        # the submit is the one request whose loss wastes real work (a
        # whole executed unit would sit out the lease and re-run), so
        # retry connection blips a few times before giving up; answered
        # failures (HTTP status, malformed body) still raise immediately
        for attempt in range(5):
            try:
                ack = await request_json(
                    "POST", url.rstrip("/") + "/shard/result", payload,
                    timeout,
                )
                break
            except ServiceUnreachableError:
                if attempt == 4:
                    raise
                await asyncio.sleep(max(poll_seconds, 0.1))
    summary["shards"] += 1
    summary["jobs"] += len(shard.plan.jobs)
    summary["records"] += sum(
        1 for frame in buffered if frame.get("event") == "record"
    )
    summary["errors"] += sum(
        1 for frame in buffered if frame.get("event") == "job_error"
    )
    return ack


async def _push_telemetry(pusher, url: str, timeout: float) -> None:
    """One best-effort async telemetry push (never raises)."""
    payload = pusher.payload()
    try:
        await request_json(
            "POST", url.rstrip("/") + "/telemetry", payload, timeout
        )
    except Exception:
        pusher.note_failure()
    else:
        pusher.commit()


async def run_worker_async(
    url: str,
    session=None,
    worker_id: str | None = None,
    max_leases: int = 2,
    concurrency: int | None = None,
    poll_seconds: float = 0.5,
    max_idle_polls: int | None = None,
    timeout: float = 300.0,
    telemetry_seconds: float | None = 2.0,
) -> dict:
    """Asyncio sibling of :func:`~repro.service.client.run_worker`.

    Where the sync worker runs one lease at a time, this one holds up
    to ``max_leases`` leased units in flight concurrently — each
    executed on an :class:`AsyncSweepExecutor` (``concurrency`` bounds
    in-flight jobs per unit; defaults to the session's ``workers``) —
    the shape that pays off against a remote generation service, where
    a unit's wall-clock is mostly waiting.  Each unit's frames upload to
    ``/shard/result/stream`` as its jobs finish, so the coordinator sees
    partial progress and can detect a broken worker before the lease
    expires; if the upload is refused or breaks, the worker falls back
    to the blocking submit automatically.

    Returns the same summary dict as the sync worker, plus
    ``streamed`` (how many submissions went over the stream route).
    Like the sync worker, metrics-registry deltas are pushed to the
    coordinator's ``POST /telemetry`` every ``telemetry_seconds``
    (``None``/``0`` disables) on a strictly best-effort basis.
    """
    if max_leases < 1:
        raise ValueError("max_leases must be >= 1")
    if session is None:
        from ...api import Session

        session = Session()
    from ...obs.collect import TelemetryPusher

    worker_id = worker_id or default_worker_id()
    pusher = (
        TelemetryPusher(None, worker_id, interval=telemetry_seconds)
        if telemetry_seconds
        else None
    )
    width = concurrency if concurrency is not None else max(session.workers, 1)
    summary = {
        "worker_id": worker_id,
        "shards": 0,
        "jobs": 0,
        "records": 0,
        "errors": 0,
        "idle_polls": 0,
        "streamed": 0,
        "coordinator_gone": False,
    }
    in_flight: set[asyncio.Task] = set()
    idle = 0
    contacted = False
    finished = False
    try:
        while True:
            if pusher is not None and pusher.due():
                await _push_telemetry(pusher, url, timeout)
            # top up to max_leases while the coordinator still has work
            while not finished and len(in_flight) < max_leases:
                try:
                    response = await request_json(
                        "POST", url.rstrip("/") + "/shard/next",
                        {"worker_id": worker_id}, timeout,
                    )
                except ServiceUnreachableError:
                    # same taxonomy as the sync worker: a coordinator we
                    # had already reached going away is a clean finish
                    if not contacted:
                        raise
                    summary["coordinator_gone"] = True
                    finished = True
                    break
                contacted = True
                if response.get("done"):
                    finished = True
                    break
                if response.get("shard") is None:
                    if in_flight:
                        break  # drain running units instead of idling
                    idle += 1
                    summary["idle_polls"] += 1
                    if max_idle_polls is not None and idle >= max_idle_polls:
                        finished = True
                        break
                    await asyncio.sleep(
                        min(
                            float(response.get("retry_after") or poll_seconds),
                            poll_seconds,
                        )
                    )
                    continue
                idle = 0
                in_flight.add(
                    asyncio.create_task(
                        _run_leased_unit(
                            url, session, response, width, summary,
                            timeout, poll_seconds,
                        )
                    )
                )
            if not in_flight:
                break
            done_tasks, in_flight = await asyncio.wait(
                in_flight, return_when=asyncio.FIRST_COMPLETED
            )
            for task in done_tasks:
                ack = task.result()  # re-raises unit failures
                if ack.get("done"):
                    # this submission completed the sweep — stop leasing
                    finished = True
    except BaseException:
        for task in in_flight:
            task.cancel()
        if in_flight:
            await asyncio.gather(*in_flight, return_exceptions=True)
        raise
    if pusher is not None and not summary["coordinator_gone"]:
        await _push_telemetry(pusher, url, timeout)
    return summary


__all__ = [
    "aiter_sweep_events",
    "astream_sweep",
    "iter_status_events",
    "iter_sweep_events",
    "run_worker_async",
    "stream_sweep",
    "submit_result_stream",
]
