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
"""

from __future__ import annotations

import asyncio
import http.client
import json
import urllib.error
import urllib.request
from typing import AsyncIterator, Callable, Iterator

from ..client import ServiceUnreachableError
from ...backends.base import BackendError
from ...eval.export import config_to_dict
from ...eval.jobs import SweepResult
from .events import assemble_stream_result, decode_frame
from .transport import close_writer, open_stream


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


__all__ = [
    "aiter_sweep_events",
    "astream_sweep",
    "iter_status_events",
    "iter_sweep_events",
    "stream_sweep",
]
