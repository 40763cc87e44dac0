"""Asyncio-native sweep service: async executor, the HTTP server, events.

The asyncio half of the service stack.  It serves the
:class:`~repro.service.server.ServiceApp` routes over HTTP and runs
sweeps as coroutines, with the same wire schemas and the same parity
guarantees as the blocking pieces of :mod:`repro.service`:

* :mod:`~repro.service.aio.backends` — :class:`AsyncBackend` protocol
  and the :func:`to_async` adapter that runs any sync backend under the
  loop;
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
  ``POST /sweep/stream`` and ``GET /shard/status/stream``.

The client of those routes is the ``urllib`` one in
:mod:`repro.service.client` (:func:`~repro.service.client.stream_sweep`
and friends).
"""

from .backends import AsyncBackend, ensure_async, to_async
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

__all__ = [
    "AsyncBackend",
    "AsyncEvalService",
    "AsyncSweepExecutor",
    "FRAME_EVENTS",
    "StreamProtocolError",
    "assemble_stream_result",
    "decode_frame",
    "decode_stream",
    "encode_frame",
    "ensure_async",
    "metric_frame",
    "result_to_frames",
    "span_frame",
    "to_async",
]
