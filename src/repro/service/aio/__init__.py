"""Asyncio-native eval service: the HTTP server and its event frames.

The asyncio half of the service stack.  It serves the
:class:`~repro.service.server.ServiceApp` routes over HTTP and streams
sweeps as NDJSON, with the same wire schemas and the same parity
guarantees as the blocking pieces of :mod:`repro.service`:

* :mod:`~repro.service.aio.events` — the NDJSON frame codec
  (``job_started``/``record``/``skip``/``job_error``/``progress``/
  ``done``), lossless stream reassembly, and :func:`emit_sweep`, which
  turns a thread :class:`~repro.eval.jobs.SweepExecutor` run into live
  frames;
* :mod:`~repro.service.aio.server` — :class:`AsyncEvalService`, the
  eval service's one HTTP server: ``ServiceApp`` routing over
  ``asyncio.start_server`` plus the streaming route
  ``POST /sweep/stream``.

The client of those routes is the ``http.client`` one in
:mod:`repro.service.client` (:func:`~repro.service.client.stream_sweep`
and friends).
"""

from .events import (
    FRAME_EVENTS,
    StreamProtocolError,
    assemble_stream_result,
    decode_frame,
    decode_stream,
    emit_sweep,
    encode_frame,
    metric_frame,
    span_frame,
)
from .server import AsyncEvalService

__all__ = [
    "AsyncEvalService",
    "FRAME_EVENTS",
    "StreamProtocolError",
    "assemble_stream_result",
    "decode_frame",
    "decode_stream",
    "emit_sweep",
    "encode_frame",
    "metric_frame",
    "span_frame",
]
