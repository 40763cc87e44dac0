"""NDJSON event frames: the streaming sweep wire protocol.

A streamed sweep is a sequence of newline-delimited JSON objects, one
frame per line, each carrying an ``"event"`` discriminator:

* ``skip``        — one planner skip record (emitted up front);
* ``job_started`` — a job entered generation;
* ``record``      — one evaluated completion of a finished job;
* ``job_error``   — a job failed after retries (carries the JobError);
* ``attempt``     — one evaluated repair-loop attempt (observational:
  the agentic workload's per-round verdicts, see :mod:`repro.agentic`);
* ``progress``    — running jobs-done / records / errors counters;
* ``metric``      — an observational metrics snapshot (see
  :mod:`repro.obs`): worker throughput, stage timings, cache counters;
* ``span``        — one completed trace span (observational; the same
  shape :class:`repro.obs.TraceWriter` persists, minus the ``type``);
* ``done``        — the lossless terminal frame: result counts + stats.

``progress``, ``attempt``, ``metric`` and ``span`` frames carry a
monotonic ``t`` timestamp (seconds, :func:`time.monotonic`) stamped at
emission; it is observational and optional on decode, so pre-``t``
streams still parse.

The payload fields reuse the :mod:`repro.eval.export` codecs (the same
lossless record/skip/error schema the shard service ships), and every
``record``/``job_error`` frame carries the job's *global plan index*, so
:func:`assemble_stream_result` can reassemble an out-of-order concurrent
stream into a :class:`~repro.eval.jobs.SweepResult` whose records are
byte-identical (via export) to a serial run of the same plan.

Anything that is not one well-formed frame per line — broken JSON, a
known event missing required fields, a stream that ends without its
terminal frame, or terminal counts that disagree with the frames seen —
raises :class:`StreamProtocolError` on the consuming side.  Frames with
an *unknown* event name are forward-compatibility points:
:func:`decode_frame` rejects them by default (one frame, asked
directly), but :func:`decode_stream` passes them through untouched and
:func:`assemble_stream_result` ignores them, so a client built before
``metric``/``span`` existed — or before whatever comes next — skips
new observational frames instead of dying mid-stream.
"""

from __future__ import annotations

import json
import time
from typing import Iterable

from ...eval.export import (
    error_from_dict,
    error_to_dict,
    record_from_dict,
    record_to_dict,
    skip_from_dict,
    skip_to_dict,
)
from ...eval.harness import Sweep
from ...eval.jobs import (
    GenerationJob,
    JobError,
    JobOutcome,
    SweepExecutor,
    SweepPlan,
    SweepResult,
    make_job_error,
)
from ...obs import REGISTRY


class StreamProtocolError(ValueError):
    """A streamed frame (or the whole stream) violated the protocol."""


#: event name -> required payload keys (beyond "event" itself)
FRAME_EVENTS: dict[str, tuple[str, ...]] = {
    "skip": ("skip_index", "skip"),
    "job_started": ("job_index", "model", "problem"),
    "record": ("job_index", "record"),
    "job_error": ("job_index", "error"),
    "attempt": ("model", "problem", "round", "verdict"),
    "progress": ("jobs_done", "jobs_total", "records", "errors"),
    "metric": ("metrics",),
    "span": ("name", "dur"),
    "done": ("jobs", "records", "errors", "skipped", "stats"),
}


# ----------------------------------------------------------------------
# Frame constructors (executor/server side)
# ----------------------------------------------------------------------
def skip_frame(skip_index: int, skip) -> dict:
    return {"event": "skip", "skip_index": skip_index,
            "skip": skip_to_dict(skip)}


def job_started_frame(job_index: int, job) -> dict:
    return {"event": "job_started", "job_index": job_index,
            "model": job.model, "problem": job.problem}


def record_frame(job_index: int, record) -> dict:
    return {"event": "record", "job_index": job_index,
            "record": record_to_dict(record)}


def job_error_frame(job_index: int, error: JobError) -> dict:
    return {"event": "job_error", "job_index": job_index,
            "error": error_to_dict(error)}


def attempt_frame(event: dict) -> dict:
    """One repair-loop attempt (observational; see repro.agentic).

    ``event`` is a :class:`~repro.agentic.backend.RepairingBackend`
    attempt-log entry: model, problem, sample_index, round, verdict,
    stage, transcript_hash (hex).  Reassembly ignores these frames —
    the final completions already arrive as ``record`` frames.
    """
    return {"event": "attempt", "t": time.monotonic(), **event}


def progress_frame(
    jobs_done: int, jobs_total: int, records: int, errors: int
) -> dict:
    return {"event": "progress", "t": time.monotonic(),
            "jobs_done": jobs_done, "jobs_total": jobs_total,
            "records": records, "errors": errors}


def metric_frame(metrics: dict) -> dict:
    """An observational metrics snapshot (throughput, stages, caches)."""
    return {"event": "metric", "t": time.monotonic(), "metrics": metrics}


def span_frame(span: dict) -> dict:
    """One completed trace span as a stream frame.

    ``span`` is a :func:`repro.obs.record_span` frame (or any dict with
    ``name``/``dur`` and optional ``t``/``tags``); the ``type`` key of
    the trace-file schema is dropped in favor of the stream's ``event``
    discriminator.
    """
    frame = {key: value for key, value in span.items() if key != "type"}
    frame.setdefault("t", time.monotonic())
    return {"event": "span", **frame}


def done_frame(result: SweepResult) -> dict:
    return {
        "event": "done",
        "jobs": int(result.stats.get("jobs", 0)),
        "records": len(result.sweep),
        "errors": len(result.errors),
        "skipped": len(result.skipped),
        "stats": dict(result.stats),
    }


def emit_sweep(plan: SweepPlan, emit, backend, **options) -> SweepResult:
    """Run ``plan`` on a :class:`SweepExecutor`, emitting its frames live.

    ``emit`` receives every frame in stream order: the ``skip`` frames
    up front; per job ``job_started`` as it starts, then any repair
    ``attempt`` frames, its ``record``/``job_error`` frames, a
    ``progress`` frame and its ``job`` span; finally one ``metric``
    snapshot and the terminal ``done``.  ``options`` go to the executor
    (``evaluator``, ``workers``, ``retry``); ``workers`` is reported as
    the done frame's ``concurrency``.

    An exception from ``emit`` ends the sweep and propagates: a job
    whose ``job_started`` it refuses never generates, and jobs already
    in flight finish unreported.  Backends with a repair attempt log
    (``start_attempt_log``/``drain_attempt_events``/``stop_attempt_log``)
    have it armed for the run and stopped afterwards, however it ends.
    """
    total = len(plan.jobs)
    counts = {"done": 0, "records": 0, "errors": 0}
    attempt_log = hasattr(backend, "start_attempt_log") and hasattr(
        backend, "drain_attempt_events"
    )

    def send_attempts() -> None:
        if attempt_log:
            for event in backend.drain_attempt_events():
                emit(attempt_frame(event))

    def observe(
        index: int,
        job: GenerationJob,
        outcome: "JobOutcome | None",
        seconds: float,
    ) -> None:
        if outcome is None:
            emit(job_started_frame(index, job))
            return
        send_attempts()
        records, failure, attempts = outcome
        if failure is None:
            for record in records:
                emit(record_frame(index, record))
        else:
            error = make_job_error(job, failure, attempts)
            emit(job_error_frame(index, error))
        counts["done"] += 1
        counts["records"] += len(records)
        counts["errors"] += int(failure is not None)
        emit(progress_frame(
            counts["done"], total, counts["records"], counts["errors"]
        ))
        emit(span_frame({
            "name": "job", "dur": seconds,
            "tags": {"job_index": index, "model": job.model,
                     "problem": job.problem},
        }))

    for index, skip in enumerate(plan.skipped):
        emit(skip_frame(index, skip))
    executor = SweepExecutor(backend, observer=observe, **options)
    if attempt_log:
        backend.start_attempt_log()
    try:
        result = executor.run(plan)
        send_attempts()
    finally:
        if attempt_log:
            backend.stop_attempt_log()
    result.stats["concurrency"] = executor.workers
    emit(metric_frame({
        "evaluator_cache": dict(executor.evaluator.cache_info),
        "job_seconds": REGISTRY.histogram_snapshot("job_seconds"),
    }))
    emit(done_frame(result))
    return result


# ----------------------------------------------------------------------
# Wire codec
# ----------------------------------------------------------------------
def encode_frame(frame: dict) -> bytes:
    """One frame as an NDJSON line (UTF-8, trailing newline)."""
    return json.dumps(frame, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_frame(line: "bytes | str", strict: bool = True) -> dict:
    """Parse + validate one NDJSON line; raises StreamProtocolError.

    With ``strict=False`` an unknown event name passes through as-is
    instead of raising — the forward-compatibility mode streaming
    consumers use so new observational frame types (as ``metric`` and
    ``span`` once were) are skippable rather than fatal.  Broken JSON,
    non-object frames, a missing ``event`` key, and known events
    missing required fields stay fatal in both modes.
    """
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise StreamProtocolError(f"undecodable frame: {exc}") from None
    try:
        frame = json.loads(line)
    except ValueError as exc:
        snippet = line[:80]
        raise StreamProtocolError(
            f"malformed frame (not JSON): {exc} (line starts: {snippet!r})"
        ) from None
    if not isinstance(frame, dict):
        raise StreamProtocolError(
            f"malformed frame: expected an object, got {type(frame).__name__}"
        )
    event = frame.get("event")
    if event not in FRAME_EVENTS:
        if not isinstance(event, str) or not event or strict:
            raise StreamProtocolError(
                f"unknown frame event {event!r}; expected one of "
                f"{sorted(FRAME_EVENTS)}"
            )
        return frame
    missing = [key for key in FRAME_EVENTS[event] if key not in frame]
    if missing:
        raise StreamProtocolError(
            f"{event} frame missing required field(s) {missing}"
        )
    return frame


# ----------------------------------------------------------------------
# Reassembly (client side)
# ----------------------------------------------------------------------
def assemble_stream_result(frames: Iterable[dict]) -> SweepResult:
    """Rebuild a SweepResult from a complete sweep event stream.

    Frames may arrive with jobs interleaved in any order (the executor
    runs them concurrently); reassembly orders outcomes by the global
    ``job_index`` each frame carries, exactly like the shard merge, so
    the result matches a serial run record-for-record.  The stream must
    end with a ``done`` frame whose counts agree with the frames seen —
    a cut or lossy stream raises :class:`StreamProtocolError` instead of
    silently returning a partial result.
    """
    job_records: dict[int, list] = {}
    job_errors: dict[int, JobError] = {}
    skips: dict[int, object] = {}
    terminal: dict | None = None
    for frame in frames:
        event = frame.get("event")
        if event == "record":
            job_records.setdefault(int(frame["job_index"]), []).append(
                record_from_dict(frame["record"])
            )
        elif event == "job_error":
            job_errors[int(frame["job_index"])] = error_from_dict(
                frame["error"]
            )
        elif event == "skip":
            skips[int(frame["skip_index"])] = skip_from_dict(frame["skip"])
        elif event == "done":
            terminal = frame
        # job_started / attempt / progress / metric / span (and any
        # event this client predates) are observational only
    if terminal is None:
        raise StreamProtocolError(
            "stream ended without a terminal done frame (connection cut?)"
        )

    jobs_seen = set(job_records) | set(job_errors)
    if set(job_records) & set(job_errors):
        both = sorted(set(job_records) & set(job_errors))
        raise StreamProtocolError(
            f"job index(es) {both} carry both records and an error"
        )
    expected_jobs = int(terminal["jobs"])
    if jobs_seen != set(range(expected_jobs)):
        stray = sorted(jobs_seen - set(range(expected_jobs)))
        missing = sorted(set(range(expected_jobs)) - jobs_seen)
        raise StreamProtocolError(
            f"stream covers {len(jobs_seen)} of {expected_jobs} jobs "
            f"(missing {missing}, stray {stray})"
        )
    sweep = Sweep()
    errors: list[JobError] = []
    for index in sorted(jobs_seen):
        if index in job_errors:
            errors.append(job_errors[index])
        else:
            sweep.extend(job_records[index])

    counts = {
        "records": len(sweep),
        "errors": len(errors),
        "skipped": len(skips),
    }
    declared = {key: int(terminal[key]) for key in counts}
    if counts != declared:
        raise StreamProtocolError(
            f"terminal frame disagrees with stream: saw {counts}, "
            f"done frame declares {declared}"
        )
    if sorted(skips) != list(range(len(skips))):
        raise StreamProtocolError("skip indices are not contiguous from 0")
    return SweepResult(
        sweep=sweep,
        skipped=[skips[i] for i in range(len(skips))],
        errors=errors,
        stats=dict(terminal["stats"]),
    )


def decode_stream(lines: Iterable["bytes | str"]) -> Iterable[dict]:
    """Decode an iterable of NDJSON lines, skipping blank keep-alives.

    Runs :func:`decode_frame` in forward-compatible mode: frames with
    an unknown event name flow through (reassembly ignores them), so a
    newer server can interleave observational frame types this client
    has never heard of.
    """
    for line in lines:
        stripped = line.strip()
        if stripped:
            yield decode_frame(stripped, strict=False)


__all__ = [
    "FRAME_EVENTS",
    "StreamProtocolError",
    "assemble_stream_result",
    "attempt_frame",
    "decode_frame",
    "decode_stream",
    "done_frame",
    "emit_sweep",
    "encode_frame",
    "job_error_frame",
    "job_started_frame",
    "metric_frame",
    "progress_frame",
    "record_frame",
    "skip_frame",
    "span_frame",
]
