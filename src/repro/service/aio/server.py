"""The eval service: ServiceApp's JSON routes plus NDJSON streaming.

:class:`AsyncEvalService` serves a :class:`~repro.api.Session` over
``asyncio.start_server``.  Routing, validation and serialization of
every JSON route (``/health`` … ``/shard/status``) are
:class:`~repro.service.server.ServiceApp`'s; blocking handlers run on
the loop's thread pool so one process keeps answering health checks
mid-sweep.  One route needs a connection that stays open and is served
here directly: ``POST /sweep/stream`` plans server-side, runs the plan
on a :class:`~repro.eval.jobs.SweepExecutor` in a worker thread, and
emits :mod:`~repro.service.aio.events` frames as NDJSON while jobs run.
Frames cross to the loop through a bounded hand-off, so a slow reader
stalls the executor.  Once the client hangs up no further job starts;
jobs already in flight finish and are discarded.  Coordinator progress
is the polled ``GET /shard/status`` (what ``repro top`` and
``/dashboard`` read).

The HTTP dialect is deliberately minimal.  JSON responses carry
``Content-Length``, and the connection stays open for the next request
(HTTP/1.1 persistence) unless the request asked for
``Connection: close`` or came as HTTP/1.0.  The streamed response is
close-delimited ``application/x-ndjson``; it, raw-text responses and
answers to malformed requests close the connection.  ``stop()`` closes
the connections that wait idle for their next request.  The client of
:mod:`repro.service.client` keeps one connection per thread open.

``start()``/``stop()`` run the loop on a daemon thread for sync callers
(the CLI, tests, ``Session.serve``/``Session.coordinate``; ``port=0``
picks a free port), and ``start_async()``/``stop_async()`` embed the
server in a caller's loop.
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import json
import math
import threading

from ..server import RAW_TEXT_KEY, ServiceApp
from ...backends.base import BackendError
from ...eval.export import config_from_dict
from .events import emit_sweep, encode_frame

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
             500: "Internal Server Error"}

#: per-line buffer limit for request reads (asyncio's default 64 KiB
#: readline limit would reject a large request line or header)
STREAM_LIMIT = 16 * 1024 * 1024

#: frames a ``/sweep/stream`` executor may run ahead of its reader
STREAM_BUFFER = 256

#: ceiling on a ``/sweep/stream`` request's ``concurrency`` (the sweep's
#: thread count): CPython's default thread-pool ceiling
MAX_STREAM_CONCURRENCY = 32


async def close_writer(writer: asyncio.StreamWriter) -> None:
    """Close a stream writer, swallowing teardown races."""
    with contextlib.suppress(Exception):
        writer.close()
        await writer.wait_closed()


class AsyncEvalService:
    """A Session served over asyncio; ``port=0`` picks a free port."""

    def __init__(
        self,
        session,
        host: str = "127.0.0.1",
        port: int = 8076,
        coordinator=None,
    ):
        self.app = ServiceApp(session, coordinator=coordinator)
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._stop_event: asyncio.Event | None = None
        self._thread_error: BaseException | None = None
        #: kept-alive connections waiting for their next request
        self._idle: dict[asyncio.StreamWriter, asyncio.Task] = {}
        #: set by stop_async: handlers answer once more, then close
        self._closing = False

    # ------------------------------------------------------------------
    @property
    def coordinator(self):
        return self.app.coordinator

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # In-loop lifecycle
    # ------------------------------------------------------------------
    async def start_async(self) -> str:
        """Bind and serve inside the caller's event loop."""
        if self._server is None:
            self._closing = False
            self._server = await asyncio.start_server(
                self._handle_connection, self.host, self.port,
                limit=STREAM_LIMIT,
            )
            self.port = self._server.sockets[0].getsockname()[1]
        return self.url

    async def stop_async(self) -> None:
        if self._server is not None:
            self._server.close()
            # an idle connection's handler reads EOF and ends; a busy
            # one closes after its response
            self._closing = True
            idle = list(self._idle.items())
            for writer, _task in idle:
                writer.close()
            if idle:
                await asyncio.wait([task for _writer, task in idle],
                                   timeout=1.0)
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "AsyncEvalService":
        await self.start_async()
        return self

    async def __aexit__(self, *_exc) -> None:
        await self.stop_async()

    # ------------------------------------------------------------------
    # Thread-bridged lifecycle (sync callers: tests, CLI, coordinate)
    # ------------------------------------------------------------------
    async def _run_until_stopped(self, started: threading.Event) -> None:
        try:
            await self.start_async()
        except BaseException as exc:  # surface bind failures in start()
            self._thread_error = exc
            started.set()
            raise
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        started.set()
        try:
            await self._stop_event.wait()
        finally:
            await self.stop_async()

    def start(self) -> str:
        """Serve on a daemon thread (own event loop); returns the URL."""
        if self._thread is not None:
            return self.url
        started = threading.Event()
        self._thread_error = None
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._run_until_stopped(started)),
            name="aio-eval-service",
            daemon=True,
        )
        self._thread.start()
        started.wait(timeout=10)
        if self._thread_error is not None:
            error, self._thread_error = self._thread_error, None
            self._thread = None
            raise error
        return self.url

    def stop(self) -> None:
        if self._loop is not None and self._stop_event is not None:
            with contextlib.suppress(RuntimeError):  # loop already gone
                self._loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        self._loop = None
        self._stop_event = None

    def __enter__(self) -> "AsyncEvalService":
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while not self._closing:
                self._idle[writer] = asyncio.current_task()
                try:
                    request = await self._read_request(reader)
                finally:
                    del self._idle[writer]
                if request is None:
                    return
                method, path, payload, keep_alive = request
                if (method, path.rstrip("/")) == ("POST", "/sweep/stream"):
                    await self._stream_sweep(reader, writer, payload or {})
                    return
                # ServiceApp handlers block (generation, merges); keep
                # the loop free to answer health checks and streams
                status, body = await asyncio.get_running_loop(
                ).run_in_executor(None, self.app.handle, method, path, payload)
                if RAW_TEXT_KEY in body:
                    await self._respond_text(writer, status, body)
                    return
                keep_alive = keep_alive and not self._closing
                await self._respond_json(writer, status, body, keep_alive)
                if not keep_alive:
                    return
        except _BadRequest as exc:
            with contextlib.suppress(ConnectionError, OSError):
                await self._respond_json(writer, 400, {"error": str(exc)})
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to answer
        except asyncio.CancelledError:
            # server torn down with this connection mid-request: the
            # streaming helpers were asked to cancel and loop teardown
            # settles them — ending this handler quietly keeps shutdown
            # free of spurious "unhandled CancelledError" callbacks
            pass
        finally:
            await close_writer(writer)

    @staticmethod
    async def _read_request(reader: asyncio.StreamReader):
        request_line = await reader.readline()
        if not request_line.strip():
            return None
        try:
            method, target, version = (
                request_line.decode("ascii").split(None, 2)
            )
        except (UnicodeDecodeError, ValueError):
            raise _BadRequest(
                f"malformed request line: {request_line[:80]!r}"
            ) from None
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length") or 0)
            if length < 0:
                raise ValueError
        except ValueError:
            raise _BadRequest(
                f"bad Content-Length {headers.get('content-length')!r}"
            ) from None
        body = await reader.readexactly(length) if length else b""
        payload = None
        if body:
            try:
                payload = json.loads(body.decode("utf-8"))
            except (ValueError, UnicodeDecodeError) as exc:
                raise _BadRequest(f"invalid JSON body: {exc}") from None
            if not isinstance(payload, dict):
                raise _BadRequest(
                    "the JSON body must be an object, "
                    f"not {type(payload).__name__}"
                )
        path = target.partition("?")[0]
        connection = headers.get("connection", "").lower()
        keep_alive = (
            "keep-alive" in connection
            if version.strip() == "HTTP/1.0"
            else "close" not in connection
        )
        return method.upper(), path, payload, keep_alive

    @staticmethod
    async def _respond_json(
        writer: asyncio.StreamWriter, status: int, body: dict,
        keep_alive: bool = False,
    ) -> None:
        data = json.dumps(body).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Error')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        )
        writer.write(head.encode("ascii") + data)
        await writer.drain()

    @staticmethod
    async def _respond_text(
        writer: asyncio.StreamWriter, status: int, body: dict
    ) -> None:
        data = body[RAW_TEXT_KEY].encode("utf-8")
        content_type = body.get("content_type", "text/plain")
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Error')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(data)}\r\n"
            "Connection: close\r\n"
            "\r\n"
        )
        writer.write(head.encode("ascii") + data)
        await writer.drain()

    @staticmethod
    async def _start_ndjson(writer: asyncio.StreamWriter) -> None:
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Cache-Control: no-store\r\n"
            b"Connection: close\r\n"
            b"\r\n"
        )
        await writer.drain()

    async def _write_frame(
        self, writer: asyncio.StreamWriter, frame: dict
    ) -> None:
        if writer.transport.is_closing():
            raise ConnectionResetError("stream client disconnected")
        writer.write(encode_frame(frame))
        await writer.drain()

    async def _pump_frames(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        frames,
    ) -> None:
        """Write an async frame iterator to the client, watching for
        hang-ups.

        Writes only surface a dead peer on the *next* write, which may
        be a slow job away — so a watcher task waits for EOF on the
        connection's read side (our protocol never sends anything after
        the request, so any read completion means the client is gone)
        and aborts the stream immediately.  The caller's ``finally``
        closes the frame generator.
        """
        watcher = asyncio.create_task(reader.read(1))
        iterator = frames.__aiter__()
        step: "asyncio.Task | None" = None
        cancelled = False
        try:
            while True:
                step = asyncio.create_task(iterator.__anext__())
                await asyncio.wait(
                    {step, watcher}, return_when=asyncio.FIRST_COMPLETED
                )
                if not step.done():
                    raise ConnectionResetError("stream client disconnected")
                try:
                    frame = step.result()
                except StopAsyncIteration:
                    break
                finally:
                    step = None  # consumed: nothing to clean up
                await self._write_frame(writer, frame)
        except asyncio.CancelledError:
            cancelled = True
            raise
        finally:
            # reap both helper tasks; a still-pending __anext__ leaves
            # the generator "running" and its aclose() would fail.  When
            # this handler is itself being cancelled (server shutdown),
            # only *request* their cancellation — awaiting here would
            # swallow the re-delivered CancelledError and leave the task
            # in a not-cancelled limbo; teardown settles them instead.
            for task in (step, watcher):
                if task is not None and not task.done():
                    task.cancel()
                if task is not None and not cancelled:
                    with contextlib.suppress(
                        asyncio.CancelledError, StopAsyncIteration
                    ):
                        await task

    # ------------------------------------------------------------------
    # The streaming route
    # ------------------------------------------------------------------
    async def _stream_sweep(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        payload: dict,
    ) -> None:
        session = self.app.session
        workers = _int_field(
            payload, "concurrency", max(session.workers, 1),
            MAX_STREAM_CONCURRENCY,
        )
        models = payload.get("models")
        if models is not None and not (
            isinstance(models, list)
            and all(isinstance(name, str) for name in models)
        ):
            raise _BadRequest(
                "bad sweep request: models must be a list of model names, "
                f"got {json.dumps(models):.80}"
            )
        try:
            config = (
                config_from_dict(payload["config"])
                if payload.get("config") is not None
                else None
            )
            # planning interrogates backend.models()/capabilities() —
            # blocking I/O on remote backends, so off the loop it goes
            plan = await asyncio.get_running_loop().run_in_executor(
                None, session.plan, config, models
            )
        except (BackendError, KeyError, TypeError, ValueError) as exc:
            raise _BadRequest(f"bad sweep request: {exc}") from None
        await self._start_ndjson(writer)
        frames = self._sweep_frames(
            plan,
            evaluator=session.evaluator,
            workers=workers,
            retry=session.retry,
        )
        try:
            await self._pump_frames(reader, writer, frames)
        finally:
            # a hang-up lands here as ConnectionError; closing the frame
            # generator closes the hand-off, so no further job starts.
            # During server shutdown the generator may still be settling
            # inside its cancelled __anext__ — then aclose() refuses
            # ("already running") and teardown closes the hand-off.
            with contextlib.suppress(RuntimeError):
                await frames.aclose()

    async def _sweep_frames(self, plan, **options):
        """Frames of ``plan`` run by :func:`emit_sweep` in a thread."""
        handoff = _FrameHandoff(asyncio.get_running_loop())
        backend = self.app.session.backend

        def produce() -> None:
            error = None
            try:
                emit_sweep(plan, handoff.put, backend, **options)
            except Exception as exc:  # noqa: BLE001 — raised on the loop
                error = exc
            finally:
                handoff.finish(error)

        threading.Thread(
            target=produce, name="sweep-stream", daemon=True
        ).start()
        try:
            while (frame := await handoff.get()) is not None:
                yield frame
        finally:
            handoff.close()


class _BadRequest(ValueError):
    """Route-level 400 with a client-visible message."""


def _int_field(
    payload: dict, key: str, default: int, ceiling: float = math.inf
) -> int:
    """``payload[key]``, an integer in ``1..ceiling``; default if absent."""
    value = payload.get(key, default)
    if key in payload and (
        type(value) is not int or not 1 <= value <= ceiling
    ):
        bounds = ">= 1" if ceiling == math.inf else f"in 1..{ceiling}"
        raise _BadRequest(
            f"bad sweep request: {key} must be an integer {bounds}, "
            f"got {json.dumps(value)}"
        )
    return value


class _FrameHandoff:
    """Bounded hand-off of frames from a sweep thread to the event loop.

    :meth:`put` blocks the sweep thread while :data:`STREAM_BUFFER`
    frames wait, so a slow reader stalls the executor instead of being
    buffered into memory.  After :meth:`close` (the client hung up) it
    raises ``ConnectionResetError`` instead, which ends the sweep.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop):
        self._loop = loop
        self._frames: collections.deque = collections.deque()
        self._lock = threading.Condition()
        self._ready = asyncio.Event()
        self._closed = False
        self._finished = False
        self._error: "BaseException | None" = None

    def _wake(self) -> None:
        with contextlib.suppress(RuntimeError):  # loop already gone
            self._loop.call_soon_threadsafe(self._ready.set)

    def put(self, frame: dict) -> None:
        """Queue one frame (sweep thread); waits while the buffer is full."""
        with self._lock:
            while len(self._frames) >= STREAM_BUFFER and not self._closed:
                self._lock.wait()
            if self._closed:
                raise ConnectionResetError("stream client disconnected")
            self._frames.append(frame)
            # the reader only waits on an empty buffer
            wake = len(self._frames) == 1
        if wake:
            self._wake()

    def finish(self, error: "BaseException | None") -> None:
        """The sweep thread is done (``error`` if it died)."""
        with self._lock:
            self._finished = True
            self._error = error
        self._wake()

    async def get(self) -> "dict | None":
        """The next frame (loop side); ``None`` once the sweep is done."""
        while True:
            with self._lock:
                if self._frames:
                    self._lock.notify()
                    return self._frames.popleft()
                if self._finished:
                    if self._error is not None:
                        raise self._error
                    return None
                self._ready.clear()
            await self._ready.wait()

    def close(self) -> None:
        """Refuse every further frame and release a blocked sweep thread."""
        with self._lock:
            self._closed = True
            self._frames.clear()
            self._lock.notify_all()


__all__ = ["AsyncEvalService"]
