"""Trace-log summarizer: the engine behind ``repro stats``.

Reads one or more ``--trace`` NDJSON files (see
:class:`repro.obs.trace.TraceWriter` for the frame schema), validates
them line by line, and aggregates:

* per-stage time split — ``generate`` vs ``parse``/``elaborate``/
  ``sim``/``testbench`` (the signal for the sim-compile roadmap item);
* job latency — exact nearest-rank p50/p95/p99 over ``job`` spans;
* per-worker throughput — jobs per second of per-worker wall clock
  (monotonic span timestamps are only compared within one file, so
  multi-worker traces merge safely);
* repair-loop attempt counts by verdict.

Schema violations raise :class:`TraceFormatError` with the offending
line number — the CI ``obs-smoke`` job uses ``repro stats`` as the
trace-file validator.
"""

from __future__ import annotations

import glob
import json
import math
import os
from typing import Sequence

#: frame types a trace file may contain
FRAME_TYPES = ("meta", "span", "metrics", "profile")

#: file suffixes treated as trace files when a directory is given
TRACE_SUFFIXES = (".trace", ".ndjson")

#: span names counted as leaf stages in the time-split table
STAGE_NAMES = ("generate", "parse", "elaborate", "analysis", "sim",
               "testbench", "engine")


class TraceFormatError(ValueError):
    """A trace file line violated the NDJSON trace schema."""


def _validate(frame: object, where: str) -> dict:
    if not isinstance(frame, dict):
        raise TraceFormatError(f"{where}: expected an object, got "
                               f"{type(frame).__name__}")
    kind = frame.get("type")
    if kind not in FRAME_TYPES:
        raise TraceFormatError(
            f"{where}: unknown frame type {kind!r}; expected one of "
            f"{sorted(FRAME_TYPES)}"
        )
    if kind == "span":
        if not isinstance(frame.get("name"), str) or not frame["name"]:
            raise TraceFormatError(f"{where}: span frame missing name")
        if not isinstance(frame.get("dur"), (int, float)):
            raise TraceFormatError(f"{where}: span frame missing dur")
        if "tags" in frame and not isinstance(frame["tags"], dict):
            raise TraceFormatError(f"{where}: span tags must be an object")
    elif kind == "meta":
        if not isinstance(frame.get("version"), int):
            raise TraceFormatError(f"{where}: meta frame missing version")
    elif kind == "metrics":
        if not isinstance(frame.get("metrics"), dict):
            raise TraceFormatError(f"{where}: metrics frame missing metrics")
    elif kind == "profile":
        if not isinstance(frame.get("constructs"), list):
            raise TraceFormatError(
                f"{where}: profile frame missing constructs"
            )
        if not isinstance(frame.get("sim_seconds"), (int, float)):
            raise TraceFormatError(
                f"{where}: profile frame missing sim_seconds"
            )
    return frame


def load_trace(path: str) -> list[dict]:
    """Parse + validate one trace file; raises :class:`TraceFormatError`."""
    frames: list[dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            where = f"{path}:{number}"
            try:
                frame = json.loads(stripped)
            except ValueError as exc:
                raise TraceFormatError(f"{where}: not JSON: {exc}") from None
            frames.append(_validate(frame, where))
    if not frames:
        raise TraceFormatError(f"{path}: empty trace (no frames)")
    return frames


def expand_trace_paths(patterns: Sequence[str]) -> list[str]:
    """Expand directories and glob patterns into trace-file paths.

    ``repro stats``/``repro hotspots`` accept, per argument: a literal
    file path, a directory (every ``.trace``/``.ndjson`` file inside,
    sorted), or a glob pattern (``'run-*.trace'``, quoted past the
    shell; ``**`` recurses).  An argument that expands to nothing is an
    error — a typo'd glob silently matching zero files would otherwise
    report an empty (healthy-looking) summary.
    """
    paths: list[str] = []
    for pattern in patterns:
        pattern = str(pattern)
        if os.path.isdir(pattern):
            matches = sorted(
                entry.path
                for entry in os.scandir(pattern)
                if entry.is_file() and entry.name.endswith(TRACE_SUFFIXES)
            )
            if not matches:
                raise TraceFormatError(
                    f"{pattern}: directory has no "
                    f"{'/'.join(TRACE_SUFFIXES)} files"
                )
            paths.extend(matches)
        elif any(ch in pattern for ch in "*?["):
            matches = sorted(glob.glob(pattern, recursive=True))
            if not matches:
                raise TraceFormatError(f"{pattern}: glob matched no files")
            paths.extend(matches)
        else:
            paths.append(pattern)
    seen: set[str] = set()
    unique: list[str] = []
    for path in paths:
        if path not in seen:
            seen.add(path)
            unique.append(path)
    return unique


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Exact nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def summarize_traces(paths: Sequence[str]) -> dict:
    """Aggregate one summary dict across ``paths`` (see module doc)."""
    stages = {
        name: {"count": 0, "seconds": 0.0} for name in STAGE_NAMES
    }
    job_durations: list[float] = []
    workers: dict[str, dict] = {}
    repair: dict[str, int] = {}
    spans_total = 0
    files = []
    profile_frames = 0
    profile_sim_seconds = 0.0
    constructs: dict[str, dict] = {}
    for source, path in enumerate(paths):
        frames = load_trace(path)
        files.append({"path": str(path), "frames": len(frames)})
        # the writer stamps its default tags once, in the meta header;
        # they apply to every span of the file (worker attribution)
        meta_tags: dict = {}
        for frame in frames:
            if frame.get("type") == "meta":
                tags = frame.get("tags")
                if isinstance(tags, dict):
                    meta_tags = tags
                break
        window: dict[str, list[float]] = {}
        for frame in frames:
            if frame.get("type") == "profile":
                profile_frames += 1
                profile_sim_seconds += float(frame.get("sim_seconds", 0.0))
                for entry in frame["constructs"]:
                    if not isinstance(entry, dict) or "path" not in entry:
                        continue
                    row = constructs.setdefault(
                        str(entry["path"]),
                        {"kind": str(entry.get("kind", "")),
                         "line": int(entry.get("line", 0) or 0),
                         "seconds": 0.0, "activations": 0,
                         "evals": 0, "steps": 0},
                    )
                    row["seconds"] += float(entry.get("seconds", 0.0))
                    row["activations"] += int(entry.get("activations", 0))
                    row["evals"] += int(entry.get("evals", 0))
                    row["steps"] += int(entry.get("steps", 0))
                continue
            if frame.get("type") != "span":
                continue
            spans_total += 1
            name = frame["name"]
            dur = float(frame["dur"])
            tags = frame.get("tags", {})
            if name in stages:
                stages[name]["count"] += 1
                stages[name]["seconds"] += dur
            elif name == "job":
                job_durations.append(dur)
                worker = str(
                    tags.get("worker")
                    or meta_tags.get("worker")
                    or f"file{source}"
                )
                row = workers.setdefault(
                    worker, {"jobs": 0, "busy_seconds": 0.0,
                             "wall_seconds": 0.0}
                )
                row["jobs"] += 1
                row["busy_seconds"] += dur
                if isinstance(frame.get("t"), (int, float)):
                    window.setdefault(worker, []).extend(
                        [float(frame["t"]), float(frame["t"]) + dur]
                    )
            elif name == "repair_attempt":
                verdict = str(tags.get("verdict", "unknown"))
                repair[verdict] = repair.get(verdict, 0) + 1
        for worker, points in window.items():
            workers[worker]["wall_seconds"] += max(points) - min(points)

    for row in workers.values():
        wall = row["wall_seconds"] or row["busy_seconds"]
        row["jobs_per_second"] = (row["jobs"] / wall) if wall > 0 else 0.0

    stage_total = sum(row["seconds"] for row in stages.values())
    for row in stages.values():
        row["share"] = (row["seconds"] / stage_total) if stage_total else 0.0

    job_durations.sort()
    jobs = {
        "count": len(job_durations),
        "seconds": sum(job_durations),
        "mean": (sum(job_durations) / len(job_durations))
        if job_durations else 0.0,
        "p50": _percentile(job_durations, 0.50),
        "p95": _percentile(job_durations, 0.95),
        "p99": _percentile(job_durations, 0.99),
    }
    construct_rows = [
        {"path": path, **row} for path, row in constructs.items()
    ]
    construct_rows.sort(key=lambda row: (-row["seconds"], row["path"]))
    attributed = sum(row["seconds"] for row in construct_rows)
    profile = {
        "frames": profile_frames,
        "sim_seconds": profile_sim_seconds,
        "attributed_seconds": attributed,
        "coverage": (attributed / profile_sim_seconds)
        if profile_sim_seconds > 0 else 0.0,
        "constructs": construct_rows,
    }
    return {
        "files": files,
        "spans": spans_total,
        "stages": stages,
        "stage_seconds_total": stage_total,
        "jobs": jobs,
        "workers": workers,
        "repair_attempts": repair,
        "profile": profile,
    }


def render_stats(summary: dict) -> str:
    """The ``repro stats`` human-readable report."""
    lines = [
        f"trace: {len(summary['files'])} file(s), "
        f"{summary['spans']} span(s)"
    ]
    lines.append("")
    lines.append(f"{'stage':<12}{'count':>8}{'seconds':>12}{'share':>9}")
    for name in STAGE_NAMES:
        row = summary["stages"][name]
        lines.append(
            f"{name:<12}{row['count']:>8}{row['seconds']:>12.4f}"
            f"{row['share']:>8.1%}"
        )
    jobs = summary["jobs"]
    lines.append("")
    lines.append(
        f"jobs: {jobs['count']}  mean {jobs['mean']:.4f}s  "
        f"p50 {jobs['p50']:.4f}s  p95 {jobs['p95']:.4f}s  "
        f"p99 {jobs['p99']:.4f}s"
    )
    if summary["workers"]:
        lines.append("")
        lines.append(f"{'worker':<24}{'jobs':>6}{'busy_s':>10}{'jobs/s':>9}")
        for worker in sorted(summary["workers"]):
            row = summary["workers"][worker]
            lines.append(
                f"{worker:<24}{row['jobs']:>6}{row['busy_seconds']:>10.3f}"
                f"{row['jobs_per_second']:>9.2f}"
            )
    if summary["repair_attempts"]:
        rendered = ", ".join(
            f"{verdict}={count}"
            for verdict, count in sorted(summary["repair_attempts"].items())
        )
        lines.append("")
        lines.append(f"repair attempts: {rendered}")
    profile = summary.get("profile") or {}
    if profile.get("frames"):
        lines.append("")
        lines.append(
            f"sim profile: {profile['frames']} run(s), "
            f"{profile['coverage']:.1%} of {profile['sim_seconds']:.4f}s "
            f"attributed — top constructs:"
        )
        for row in profile["constructs"][:5]:
            lines.append(
                f"  {row['path']:<28}{row['seconds']:>10.4f}s"
                f"{row['activations']:>8} act{row['evals']:>10} evals"
            )
        lines.append("  (full ranking: repro hotspots)")
    return "\n".join(lines)


def render_hotspots(summary: dict, coverage: float = 0.80) -> str:
    """The ``repro hotspots`` report: constructs ranked until ``coverage``.

    Ranks hottest-first and stops once the cumulative share of total
    sim wall time reaches ``coverage`` (the remainder is summarized on
    one line), which keeps the report focused on the constructs worth
    compiling first.
    """
    profile = summary.get("profile") or {}
    rows = profile.get("constructs") or []
    if not profile.get("frames") or not rows:
        return (
            "no profile frames found — record one with "
            "`repro sweep --trace FILE --profile`"
        )
    total = profile["sim_seconds"] or profile["attributed_seconds"]
    lines = [
        f"sim hotspots: {profile['frames']} profiled run(s), "
        f"{total:.4f}s sim wall time, "
        f"{profile['coverage']:.1%} attributed to {len(rows)} construct(s)"
    ]
    lines.append("")
    lines.append(
        f"{'construct':<32}{'seconds':>10}{'share':>8}{'cum':>8}"
        f"{'act':>8}{'evals':>10}{'evals/act':>11}"
    )
    cumulative = 0.0
    shown = 0
    for row in rows:
        share = (row["seconds"] / total) if total > 0 else 0.0
        cumulative += share
        per_activation = (
            row["evals"] / row["activations"] if row["activations"] else 0.0
        )
        lines.append(
            f"{row['path']:<32}{row['seconds']:>10.4f}{share:>8.1%}"
            f"{cumulative:>8.1%}{row['activations']:>8}{row['evals']:>10}"
            f"{per_activation:>11.1f}"
        )
        shown += 1
        if cumulative >= coverage:
            break
    remainder = len(rows) - shown
    if remainder > 0:
        rest = sum(row["seconds"] for row in rows[shown:])
        lines.append(
            f"... {remainder} more construct(s) totalling {rest:.4f}s"
        )
    return "\n".join(lines)


__all__ = [
    "FRAME_TYPES",
    "STAGE_NAMES",
    "TRACE_SUFFIXES",
    "TraceFormatError",
    "expand_trace_paths",
    "load_trace",
    "render_hotspots",
    "render_stats",
    "summarize_traces",
]
