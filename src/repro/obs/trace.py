"""Span tracing: per-job context, sinks, NDJSON trace files.

A *span* is one timed operation: ``{"type": "span", "name": ...,
"t": <monotonic start>, "dur": <seconds>, "tags": {...}}``.  Spans fan
out to registered *sinks* — callables taking the frame dict — and cost
nothing when no sink is installed (:func:`tracing_active` is one list
check, which is what keeps the instrumented hot path within the
overhead budget).

The per-job trace context is a :mod:`contextvars` variable set by
executors around each job (:func:`job_tags`); everything recorded
underneath — backend generation, evaluator stages, simulator runs,
repair-loop rounds — inherits those tags without any signature
threading, across thread-pool workers (the context is set inside the
worker thread).

:class:`TraceWriter` is the file sink behind ``--trace FILE``: one
NDJSON frame per line, a ``meta`` header, spans as they complete, and a
final ``metrics`` frame carrying the registry snapshot, so a trace file
alone is enough for ``repro stats`` to rebuild the run profile.
"""

from __future__ import annotations

import contextvars
import json
import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator

from .metrics import REGISTRY

SpanSink = Callable[[dict], None]

_SINKS: list[SpanSink] = []
_SINKS_LOCK = threading.Lock()
_TAGS: contextvars.ContextVar["dict | None"] = contextvars.ContextVar(
    "repro_obs_tags", default=None
)

TRACE_VERSION = 1


def tracing_active() -> bool:
    """True when at least one span sink is installed (the fast gate)."""
    return bool(_SINKS)


def add_sink(sink: SpanSink) -> None:
    with _SINKS_LOCK:
        if sink not in _SINKS:
            _SINKS.append(sink)


def remove_sink(sink: SpanSink) -> None:
    with _SINKS_LOCK:
        if sink in _SINKS:
            _SINKS.remove(sink)


def current_tags() -> dict:
    """The ambient job-context tags (empty dict when outside a job)."""
    tags = _TAGS.get()
    return dict(tags) if tags else {}


@contextmanager
def job_tags(**tags) -> Iterator[None]:
    """Ambient tags for every span recorded inside the ``with`` body.

    Nesting merges (inner wins on collision); the previous context is
    restored on exit even across exceptions.  This is the per-job trace
    context: executors set ``model``/``problem``/``level``/… here and
    the evaluator/simulator/repair spans pick them up for free.
    """
    merged = {**(_TAGS.get() or {}), **tags}
    token = _TAGS.set(merged)
    try:
        yield
    finally:
        _TAGS.reset(token)


def record_span(
    name: str, seconds: float, t: "float | None" = None, **tags
) -> None:
    """Emit one completed span to every sink (no-op without sinks).

    ``t`` is the span's monotonic start time; when omitted it is
    back-dated from now by ``seconds`` (good enough for manually timed
    call sites like the repair loop).
    """
    if not _SINKS:
        return
    if t is None:
        t = time.monotonic() - seconds
    base = _TAGS.get()
    if base:
        merged = {**base, **tags} if tags else dict(base)
    else:
        merged = tags
    frame = {
        "type": "span",
        "name": name,
        "t": round(float(t), 6),
        "dur": round(float(seconds), 9),
        "tags": merged,
    }
    # tuple() of a list is atomic under the GIL; sinks change rarely,
    # spans are the hot path — no lock here
    for sink in tuple(_SINKS):
        sink(frame)


def record_frame(frame: dict) -> None:
    """Emit one non-span frame to every sink (no-op without sinks).

    This is how structured frames beyond spans — the simulator
    profiler's ``profile`` frames — reach ``--trace`` files without the
    writer growing a type-specific API: :class:`TraceWriter` serializes
    any dict it receives.
    """
    if not _SINKS:
        return
    for sink in tuple(_SINKS):
        sink(frame)


@contextmanager
def span(name: str, **tags) -> Iterator[None]:
    """Time the ``with`` body and record it as one span."""
    if not _SINKS:
        yield
        return
    t = time.monotonic()
    started = time.perf_counter()
    try:
        yield
    finally:
        record_span(name, time.perf_counter() - started, t=t, **tags)


class TraceWriter:
    """NDJSON trace-file sink (the ``--trace FILE`` backend).

    Thread-safe: executors complete spans from many workers at once.
    ``tags`` land once in the ``meta`` header — not on every span, the
    hot path stays two dict builds + one dumps — and readers apply them
    as per-file span-tag defaults (the ``work`` command stamps
    ``worker`` here so multi-file traces keep per-worker attribution).
    Use as a context manager to install/remove the global sink; closing
    appends a ``metrics`` frame with the registry snapshot.
    """

    def __init__(self, path: str, tags: "dict | None" = None):
        self.path = str(path)
        self.tags = dict(tags or {})
        self._lock = threading.Lock()
        self._file = open(self.path, "w", encoding="utf-8")
        self._write(
            {
                "type": "meta",
                "version": TRACE_VERSION,
                "clock": "monotonic",
                "created_unix": time.time(),
                "tags": self.tags,
            }
        )

    def _write(self, frame: dict) -> None:
        line = json.dumps(frame, separators=(",", ":"), default=str)
        with self._lock:
            self._file.write(line + "\n")

    def __call__(self, frame: dict) -> None:
        if frame.get("type") == "span":
            # hot path: span frames outnumber everything else a
            # thousandfold — serialize the fixed fields directly
            # (rounded floats repr as valid JSON) and dumps only the
            # tags dict, roughly halving the per-span cost
            line = '{"type":"span","name":%s,"t":%r,"dur":%r,"tags":%s}' % (
                json.dumps(frame["name"]),
                frame["t"],
                frame["dur"],
                json.dumps(
                    frame["tags"], separators=(",", ":"), default=str
                ),
            )
            with self._lock:
                self._file.write(line + "\n")
            return
        self._write(frame)

    def close(self) -> None:
        with self._lock:
            if self._file.closed:
                return
        self._write(
            {"type": "metrics", "t": time.monotonic(),
             "metrics": REGISTRY.snapshot()}
        )
        with self._lock:
            self._file.close()

    def __enter__(self) -> "TraceWriter":
        add_sink(self)
        return self

    def __exit__(self, *exc_info) -> None:
        remove_sink(self)
        self.close()


__all__ = [
    "TRACE_VERSION",
    "TraceWriter",
    "add_sink",
    "current_tags",
    "job_tags",
    "record_frame",
    "record_span",
    "remove_sink",
    "span",
    "tracing_active",
]
