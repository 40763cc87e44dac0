"""Non-blocking HTTP primitives for the asyncio service layer.

The sync service stack speaks JSON-over-HTTP through ``urllib``; this
module is its asyncio twin, built directly on ``asyncio.open_connection``
(the standard library has no async HTTP client).  It implements exactly
the slice of HTTP/1.1 our own services speak — JSON request bodies,
``Content-Length`` or close-delimited responses, ``Connection: close``
per request — and keeps the sync layer's failure taxonomy:

* nothing listening / connect timeout →
  :class:`~repro.service.client.ServiceUnreachableError`;
* an HTTP error status → :class:`~repro.backends.base.BackendError`
  carrying the server's error detail;
* a 200 whose body is not valid JSON → ``BackendError`` ("malformed
  response" with a body snippet).

:func:`request_json` is the one-shot round trip (the async twin of
:func:`~repro.service.client.http_transport`); :func:`open_stream`
returns the live reader after response headers for NDJSON line
streaming (``/sweep/stream``, ``/shard/status/stream``).
"""

from __future__ import annotations

import asyncio
import contextlib
import json
from typing import Awaitable, Callable
from urllib.parse import urlsplit

from ..client import ServiceUnreachableError
from ...backends.base import BackendError

#: async twin of :data:`repro.service.client.Transport`
AsyncTransport = Callable[[str, str, "dict | None"], Awaitable[dict]]

#: per-line buffer limit for NDJSON streams, shared by client connections
#: and the server (asyncio's default 64 KiB readline limit would reject
#: any event frame larger than one socket buffer — a big record or a
#: stats-heavy done frame must not kill the stream)
STREAM_LIMIT = 16 * 1024 * 1024


def _split_url(url: str) -> tuple[str, int, str]:
    """(host, port, path+query) from an http:// URL."""
    parts = urlsplit(url)
    if parts.scheme != "http":
        raise BackendError(
            f"async transport speaks plain http only, got {url!r}"
        )
    if not parts.hostname:
        raise BackendError(f"no host in service URL {url!r}")
    target = parts.path or "/"
    if parts.query:
        target += f"?{parts.query}"
    return parts.hostname, parts.port or 80, target


def _encode_request(
    method: str, host: str, port: int, target: str, payload: "dict | None"
) -> bytes:
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    head = (
        f"{method.upper()} {target} HTTP/1.1\r\n"
        f"Host: {host}:{port}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    )
    return head.encode("ascii") + body


async def _read_head(
    reader: asyncio.StreamReader,
) -> tuple[int, dict[str, str]]:
    """Parse the status line + headers; returns (status, headers)."""
    status_line = await reader.readline()
    try:
        _version, code, *_reason = status_line.decode("ascii").split(None, 2)
        status = int(code)
    except (UnicodeDecodeError, ValueError):
        raise BackendError(
            f"malformed HTTP status line: {status_line[:80]!r}"
        ) from None
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers


async def _read_body(
    reader: asyncio.StreamReader, headers: dict[str, str]
) -> bytes:
    length = headers.get("content-length")
    if length is not None:
        try:
            return await reader.readexactly(int(length))
        except asyncio.IncompleteReadError as exc:
            return exc.partial
    return await reader.read()


async def close_writer(writer: asyncio.StreamWriter) -> None:
    """Close a stream writer, swallowing teardown races."""
    with contextlib.suppress(Exception):
        writer.close()
        await writer.wait_closed()


def _decode_json_body(body: bytes, url: str) -> dict:
    try:
        return json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        snippet = body[:120].decode("utf-8", errors="replace")
        raise BackendError(
            f"malformed response from {url}: {exc} "
            f"(body starts: {snippet!r})"
        ) from None


def _error_detail(body: bytes) -> str:
    try:
        return str(json.loads(body.decode("utf-8"))["error"])
    except Exception:  # noqa: BLE001 — body may not be our JSON
        return body[:120].decode("utf-8", errors="replace")


async def _connect(
    host: str, port: int, timeout: float, url: str
) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    try:
        return await asyncio.wait_for(
            asyncio.open_connection(host, port, limit=STREAM_LIMIT), timeout
        )
    except (OSError, asyncio.TimeoutError) as exc:
        raise ServiceUnreachableError(
            f"cannot reach eval service at {url}: {exc or type(exc).__name__}"
        ) from None


async def request_json(
    method: str,
    url: str,
    payload: "dict | None" = None,
    timeout: float = 30.0,
) -> dict:
    """One JSON round trip against ``url``; the async http_transport."""
    host, port, target = _split_url(url)
    reader, writer = await _connect(host, port, timeout, url)
    try:
        writer.write(_encode_request(method, host, port, target, payload))
        await writer.drain()
        status, headers = await asyncio.wait_for(
            _read_head(reader), timeout
        )
        body = await asyncio.wait_for(_read_body(reader, headers), timeout)
    except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError) as exc:
        raise ServiceUnreachableError(
            f"cannot reach eval service at {url}: {exc or type(exc).__name__}"
        ) from None
    finally:
        await close_writer(writer)
    if status >= 400:
        raise BackendError(
            f"eval service {status} on {target}: {_error_detail(body)}"
        )
    return _decode_json_body(body, url)


async def open_stream(
    method: str,
    url: str,
    payload: "dict | None" = None,
    timeout: float = 30.0,
) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """Send a request and return the reader positioned at the body.

    For NDJSON streaming routes: the caller iterates
    ``await reader.readline()`` until EOF and must close the writer
    (:func:`close_writer`) when done — closing it early is how a client
    aborts a streamed sweep.  Raises like :func:`request_json` if the
    server answers with an error status before the stream starts.
    """
    host, port, target = _split_url(url)
    reader, writer = await _connect(host, port, timeout, url)
    try:
        writer.write(_encode_request(method, host, port, target, payload))
        await writer.drain()
        status, headers = await asyncio.wait_for(_read_head(reader), timeout)
        if status >= 400:
            body = await asyncio.wait_for(
                _read_body(reader, headers), timeout
            )
            raise BackendError(
                f"eval service {status} on {target}: {_error_detail(body)}"
            )
    except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError) as exc:
        await close_writer(writer)
        raise ServiceUnreachableError(
            f"cannot reach eval service at {url}: {exc or type(exc).__name__}"
        ) from None
    except BaseException:
        await close_writer(writer)
        raise
    return reader, writer


def async_json_transport(
    base_url: str, timeout: float = 30.0
) -> AsyncTransport:
    """An :data:`AsyncTransport` bound to ``base_url`` (async twin of
    :func:`~repro.service.client.http_transport`)."""

    async def call(
        method: str, path: str, payload: "dict | None" = None
    ) -> dict:
        return await request_json(
            method, base_url.rstrip("/") + path, payload, timeout
        )

    return call


def async_chat_transport(
    timeout: float = 30.0,
) -> Callable[[str, dict], Awaitable[dict]]:
    """A non-blocking chat transport for the HTTP chat backend shape:
    ``await transport(url, payload) -> response dict`` via POST."""

    async def call(url: str, payload: dict) -> dict:
        return await request_json("POST", url, payload, timeout)

    return call


__all__ = [
    "STREAM_LIMIT",
    "AsyncTransport",
    "async_chat_transport",
    "async_json_transport",
    "close_writer",
    "open_stream",
    "request_json",
]
