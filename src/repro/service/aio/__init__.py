"""Asyncio-native sweep service: async executor, the HTTP server, events.

The asyncio half of the service stack.  It serves the
:class:`~repro.service.server.ServiceApp` routes over HTTP, and gives
the blocking pieces of :mod:`repro.service` non-blocking twins that
share the same wire schemas and the same parity guarantees:

* :mod:`~repro.service.aio.backends` — :class:`AsyncBackend` protocol,
  the :func:`to_async`/:func:`from_async` bridge for existing sync
  backends, and async-native remote clients
  (:class:`AsyncServiceBackend`, :class:`AsyncHTTPChatBackend`);
* :mod:`~repro.service.aio.executor` — :class:`AsyncSweepExecutor`,
  coroutine-per-chunk execution with bounded concurrency, retry/batch
  parity with the thread executor, cooperative cancellation, and live
  event emission;
* :mod:`~repro.service.aio.events` — the NDJSON frame codec
  (``job_started``/``record``/``skip``/``job_error``/``progress``/
  ``done``) and lossless stream reassembly;
* :mod:`~repro.service.aio.server` — :class:`AsyncEvalService`, the
  eval service's one HTTP server: ``ServiceApp`` routing over
  ``asyncio.start_server`` plus the streaming routes
  ``POST /sweep/stream`` and ``GET /shard/status/stream``;
* :mod:`~repro.service.aio.client` — :func:`iter_sweep_events` /
  :func:`stream_sweep` (sync) and their async twins;
* :mod:`~repro.service.aio.transport` — raw non-blocking HTTP/JSON
  primitives with the sync client's failure taxonomy.
"""

from .backends import (
    AsyncBackend,
    AsyncHTTPChatBackend,
    AsyncServiceBackend,
    ensure_async,
    ensure_sync,
    from_async,
    to_async,
)
from .client import (
    aiter_sweep_events,
    astream_sweep,
    iter_status_events,
    iter_sweep_events,
    stream_sweep,
)
from .events import (
    FRAME_EVENTS,
    StreamProtocolError,
    assemble_stream_result,
    decode_frame,
    decode_stream,
    encode_frame,
    metric_frame,
    result_to_frames,
    span_frame,
)
from .executor import AsyncSweepExecutor
from .server import AsyncEvalService
from .transport import (
    AsyncTransport,
    async_chat_transport,
    async_json_transport,
    request_json,
)

__all__ = [
    "AsyncBackend",
    "AsyncEvalService",
    "AsyncHTTPChatBackend",
    "AsyncServiceBackend",
    "AsyncSweepExecutor",
    "AsyncTransport",
    "FRAME_EVENTS",
    "StreamProtocolError",
    "aiter_sweep_events",
    "assemble_stream_result",
    "astream_sweep",
    "async_chat_transport",
    "async_json_transport",
    "decode_frame",
    "decode_stream",
    "encode_frame",
    "ensure_async",
    "ensure_sync",
    "from_async",
    "iter_status_events",
    "iter_sweep_events",
    "metric_frame",
    "request_json",
    "result_to_frames",
    "span_frame",
    "stream_sweep",
    "to_async",
]
