"""Dependency-free metrics: counters, gauges, streaming histograms.

A :class:`MetricsRegistry` is a thread-safe bag of labelled series.
Counters and gauges are plain floats; histograms are streaming
log-bucket sketches (geometric buckets, ~9.6% relative width) that
answer p50/p95/p99 in O(buckets) without retaining samples, so the
always-on stage timers can run for millions of evaluations at constant
memory.

The process-wide default lives at :data:`REGISTRY`; servers expose its
:meth:`~MetricsRegistry.snapshot` as ``GET /metrics`` (JSON) and
:func:`render_prometheus` as ``GET /metrics/prom`` (text exposition
format).  Tests grab a private registry or :func:`reset_registry`.
"""

from __future__ import annotations

import math
import threading

#: geometric bucket base: 48 buckets per decade, ~9.6% relative error
_BUCKET_BASE = 10.0 ** (1.0 / 48.0)
_LOG_BASE = math.log(_BUCKET_BASE)
#: values at or below this collapse into the floor bucket (sub-100ns)
_FLOOR = 1e-9

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Histogram:
    """Streaming log-bucket histogram with exact count/sum/min/max.

    ``observe`` is a dict increment; quantiles interpolate within the
    geometric bucket that crosses the target rank, which bounds the
    relative error at one bucket width.  Not thread-safe on its own —
    the registry serializes access.
    """

    __slots__ = ("buckets", "count", "total", "min", "max")

    def __init__(self) -> None:
        self.buckets: dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        index = (
            int(math.floor(math.log(value) / _LOG_BASE))
            if value > _FLOOR
            else int(math.floor(math.log(_FLOOR) / _LOG_BASE))
        )
        self.buckets[index] = self.buckets.get(index, 0) + 1

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile (0 < q <= 1); 0.0 when empty."""
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for index in sorted(self.buckets):
            width = self.buckets[index]
            if seen + width >= rank:
                lo = _BUCKET_BASE**index
                hi = _BUCKET_BASE ** (index + 1)
                fraction = (rank - seen) / width
                estimate = lo + (hi - lo) * fraction
                return min(max(estimate, self.min), self.max)
            seen += width
        return self.max  # pragma: no cover — float-rounding fallback

    def snapshot(self) -> dict:
        if self.count == 0:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                    "p50": 0.0, "p95": 0.0, "p99": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class MetricsRegistry:
    """Thread-safe registry of labelled counters, gauges, histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[tuple[str, LabelKey], float] = {}
        self._gauges: dict[tuple[str, LabelKey], float] = {}
        self._histograms: dict[tuple[str, LabelKey], Histogram] = {}

    # ------------------------------------------------------------------
    def inc(self, name: str, value: float = 1.0, **labels) -> None:
        key = (name, _label_key(labels))
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + value

    def set_gauge(self, name: str, value: float, **labels) -> None:
        key = (name, _label_key(labels))
        with self._lock:
            self._gauges[key] = float(value)

    def observe(self, name: str, value: float, **labels) -> None:
        key = (name, _label_key(labels))
        with self._lock:
            histogram = self._histograms.get(key)
            if histogram is None:
                histogram = self._histograms[key] = Histogram()
            histogram.observe(value)

    # ------------------------------------------------------------------
    def counter_value(self, name: str, **labels) -> float:
        with self._lock:
            return self._counters.get((name, _label_key(labels)), 0.0)

    def histogram_snapshot(self, name: str, **labels) -> dict:
        with self._lock:
            histogram = self._histograms.get((name, _label_key(labels)))
            return histogram.snapshot() if histogram else Histogram().snapshot()

    def snapshot(self) -> dict:
        """Everything, as plain JSON-ready rows (sorted, deterministic)."""
        with self._lock:
            counters = [
                {"name": name, "labels": dict(key), "value": value}
                for (name, key), value in sorted(self._counters.items())
            ]
            gauges = [
                {"name": name, "labels": dict(key), "value": value}
                for (name, key), value in sorted(self._gauges.items())
            ]
            histograms = [
                {"name": name, "labels": dict(key), **histogram.snapshot()}
                for (name, key), histogram in sorted(self._histograms.items())
            ]
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


def _escape_label_value(value: str) -> str:
    """Escape a label value per the 0.0.4 text exposition format.

    Backslash first so the other two escapes aren't double-escaped.
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _prom_series(name: str, labels: dict, value: float,
                 extra: dict | None = None) -> str:
    pairs = dict(labels)
    if extra:
        pairs.update(extra)
    if pairs:
        rendered = ",".join(
            f'{key}="{_escape_label_value(value_)}"'
            for key, value_ in sorted(pairs.items())
        )
        return f"{name}{{{rendered}}} {value}"
    return f"{name} {value}"


def append_snapshot_lines(
    lines: list[str],
    typed: set[str],
    snapshot: dict,
    extra_labels: dict | None = None,
) -> None:
    """Append one snapshot's exposition rows to ``lines``.

    ``typed`` carries the ``# TYPE``-declared names across calls so a
    caller can merge several snapshots (the fleet renderer stacks the
    local registry plus one snapshot per worker) without duplicate type
    declarations.  ``extra_labels`` is stamped onto every series — the
    fleet path uses it for the per-worker label.
    """

    def declare(name: str, kind: str) -> None:
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")

    def labelled(labels: dict) -> dict:
        if not extra_labels:
            return labels
        return {**labels, **extra_labels}

    for row in snapshot.get("counters", ()):
        declare(row["name"], "counter")
        lines.append(
            _prom_series(row["name"], labelled(row["labels"]), row["value"])
        )
    for row in snapshot.get("gauges", ()):
        declare(row["name"], "gauge")
        lines.append(
            _prom_series(row["name"], labelled(row["labels"]), row["value"])
        )
    for row in snapshot.get("histograms", ()):
        name = row["name"]
        declare(name, "summary")
        for q_label, q_key in (("0.5", "p50"), ("0.95", "p95"),
                               ("0.99", "p99")):
            lines.append(
                _prom_series(name, labelled(row["labels"]), row[q_key],
                             {"quantile": q_label})
            )
        lines.append(_prom_series(f"{name}_count", labelled(row["labels"]),
                                  row["count"]))
        lines.append(_prom_series(f"{name}_sum", labelled(row["labels"]),
                                  row["sum"]))


def render_prometheus(registry: "MetricsRegistry | None" = None) -> str:
    """The registry in Prometheus text exposition format (version 0.0.4).

    Histograms render as summaries: ``{quantile="..."}`` series plus
    ``_count`` / ``_sum``.  Series are sorted, so the output is stable
    for a given registry state.
    """
    registry = registry if registry is not None else REGISTRY
    lines: list[str] = []
    append_snapshot_lines(lines, set(), registry.snapshot())
    return "\n".join(lines) + "\n"


#: the process-wide default registry every instrumentation site uses
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return REGISTRY


def reset_registry() -> None:
    """Clear the default registry (test isolation; cheap, lock-guarded)."""
    REGISTRY.reset()


__all__ = [
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "append_snapshot_lines",
    "get_registry",
    "render_prometheus",
    "reset_registry",
]
