"""Fleet telemetry: worker-side pushes, coordinator-side merge.

PR 7 gave every process its own :class:`~repro.obs.metrics.MetricsRegistry`
behind ``GET /metrics`` — which means observing a fleet required scraping
every worker.  This module inverts the flow: each worker periodically
pushes *registry deltas* to the coordinator (``POST /telemetry``) and the
coordinator merges them into a fleet-wide view, so one scrape of the
coordinator's ``GET /metrics`` / ``GET /metrics/prom`` covers every live
worker, with per-worker labels and staleness marks for workers that
stopped pushing.

Two halves:

* :class:`TelemetryPusher` runs inside the worker loop.  It snapshots
  the registry, sends counter/histogram *deltas* (gauges travel as
  absolutes) so the merge is idempotent across worker restarts, and is
  failure-tolerant by design: a push failure can never raise into the
  work loop, and a coordinator without the route (older build) disables
  the pusher after a few attempts instead of hammering it.
* :class:`TelemetryHub` lives on the service app.  ``ingest`` folds a
  push into per-worker accumulators; ``fleet_snapshot`` exposes them in
  registry-snapshot row shape so the JSON route embeds them directly and
  :func:`render_fleet_prometheus` stacks them under the local registry's
  exposition text with shared ``# TYPE`` declarations.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from .metrics import (
    REGISTRY,
    MetricsRegistry,
    append_snapshot_lines,
)

#: consecutive failures after which a pusher stops trying (the
#: coordinator predates /telemetry, or is simply gone)
MAX_PUSH_FAILURES = 3


def _series_key(row: dict) -> tuple:
    return (row["name"], tuple(sorted(row["labels"].items())))


class TelemetryPusher:
    """Periodic registry-delta uploads from one worker.

    ``send`` is any callable taking the payload dict and raising on
    failure; the worker binds it to its transport's ``POST /telemetry``.
    """

    def __init__(
        self,
        send: Callable[[dict], object],
        worker_id: str,
        interval: float = 2.0,
        registry: "MetricsRegistry | None" = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if not callable(send):
            raise TypeError(f"send must be callable, got {send!r}")
        self.send = send
        self.worker_id = str(worker_id)
        self.interval = float(interval)
        self.registry = registry if registry is not None else REGISTRY
        self.clock = clock
        self.disabled = False
        self.pushes = 0
        self.failures = 0
        self._consecutive_failures = 0
        self._seq = 0
        self._last_push = -float("inf")
        self._base_counters: dict[tuple, float] = {}
        self._base_histograms: dict[tuple, tuple[int, float]] = {}
        self._pending: "dict | None" = None

    # ------------------------------------------------------------------
    def due(self) -> bool:
        """True when the push interval elapsed (and pushing still works)."""
        if self.disabled:
            return False
        return (self.clock() - self._last_push) >= self.interval

    def payload(self) -> dict:
        """Build the next push: deltas vs the last *committed* baseline.

        Does not advance the baseline — call :meth:`commit` once the
        send succeeded, so a failed push's deltas ride along with the
        next attempt instead of being lost.
        """
        snapshot = self.registry.snapshot()
        counters = []
        for row in snapshot["counters"]:
            key = _series_key(row)
            delta = row["value"] - self._base_counters.get(key, 0.0)
            if delta:
                counters.append(
                    {"name": row["name"], "labels": row["labels"],
                     "value": delta}
                )
        histograms = []
        for row in snapshot["histograms"]:
            key = _series_key(row)
            base_count, base_sum = self._base_histograms.get(key, (0, 0.0))
            count_delta = row["count"] - base_count
            if count_delta:
                histograms.append(
                    {
                        "name": row["name"], "labels": row["labels"],
                        "count": count_delta,
                        "sum": row["sum"] - base_sum,
                        "min": row["min"], "max": row["max"],
                        "p50": row["p50"], "p95": row["p95"],
                        "p99": row["p99"],
                    }
                )
        self._pending = snapshot
        self._seq += 1
        return {
            "worker": self.worker_id,
            "seq": self._seq,
            "sent_unix": time.time(),
            "counters": counters,
            "gauges": snapshot["gauges"],
            "histograms": histograms,
        }

    def commit(self) -> None:
        """Advance baselines to the snapshot behind the last payload."""
        snapshot, self._pending = self._pending, None
        if snapshot is None:
            return
        self._base_counters = {
            _series_key(row): row["value"] for row in snapshot["counters"]
        }
        self._base_histograms = {
            _series_key(row): (row["count"], row["sum"])
            for row in snapshot["histograms"]
        }
        self._last_push = self.clock()
        self.pushes += 1
        self._consecutive_failures = 0

    def note_failure(self) -> None:
        self._pending = None
        self.failures += 1
        self._consecutive_failures += 1
        # back off to the next interval rather than retrying immediately
        self._last_push = self.clock()
        if self._consecutive_failures >= MAX_PUSH_FAILURES:
            self.disabled = True

    # ------------------------------------------------------------------
    def push(self) -> bool:
        """One forced push; swallows every error (telemetry is best-effort)."""
        if self.disabled:
            return False
        try:
            self.send(self.payload())
        except Exception:
            self.note_failure()
            return False
        self.commit()
        return True

    def maybe_push(self) -> bool:
        """Push iff the interval elapsed; the worker loop calls this."""
        if not self.due():
            return False
        return self.push()


class TelemetryHub:
    """Coordinator-side merge of worker telemetry pushes.

    Counters accumulate pushed deltas, gauges are last-write-wins,
    histograms accumulate ``count``/``sum`` and keep the latest quantile
    estimates (a cross-worker quantile merge would need the raw bucket
    sketches; count-weighted latest is the honest summary the dashboard
    needs).  Thread-safe: HTTP handler threads ingest concurrently.
    """

    def __init__(
        self,
        stale_after: float = 10.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.stale_after = float(stale_after)
        self.clock = clock
        self._lock = threading.Lock()
        self._workers: dict[str, dict] = {}
        self._counters: dict[tuple, float] = {}
        self._gauges: dict[tuple, float] = {}
        self._histograms: dict[tuple, dict] = {}

    # ------------------------------------------------------------------
    def ingest(self, payload: "dict | None") -> dict:
        """Merge one ``POST /telemetry`` body; returns the ack."""
        if not isinstance(payload, dict):
            raise ValueError("telemetry payload must be an object")
        worker = payload.get("worker")
        if not isinstance(worker, str) or not worker:
            raise ValueError("telemetry payload missing worker id")
        with self._lock:
            row = self._workers.setdefault(
                worker,
                {"worker": worker, "pushes": 0, "seq": 0, "first_seen":
                 self.clock(), "last_seen": 0.0, "last_unix": 0.0},
            )
            row["pushes"] += 1
            row["seq"] = int(payload.get("seq", row["seq"]) or 0)
            row["last_seen"] = self.clock()
            row["last_unix"] = float(payload.get("sent_unix", 0.0) or 0.0)
            for entry in payload.get("counters") or ():
                key = self._key(worker, entry)
                if key is None:
                    continue
                self._counters[key] = (
                    self._counters.get(key, 0.0) + float(entry["value"])
                )
            for entry in payload.get("gauges") or ():
                key = self._key(worker, entry)
                if key is None:
                    continue
                self._gauges[key] = float(entry["value"])
            for entry in payload.get("histograms") or ():
                key = self._key(worker, entry)
                if key is None:
                    continue
                merged = self._histograms.get(key)
                if merged is None:
                    merged = self._histograms[key] = {
                        "count": 0, "sum": 0.0, "min": float(entry["min"]),
                        "max": float(entry["max"]),
                    }
                merged["count"] += int(entry["count"])
                merged["sum"] += float(entry["sum"])
                merged["min"] = min(merged["min"], float(entry["min"]))
                merged["max"] = max(merged["max"], float(entry["max"]))
                for quantile in ("p50", "p95", "p99"):
                    merged[quantile] = float(entry.get(quantile, 0.0))
            pushes = row["pushes"]
        return {"ok": True, "worker": worker, "pushes": pushes}

    @staticmethod
    def _key(worker: str, entry: object) -> "tuple | None":
        if not isinstance(entry, dict) or "name" not in entry:
            return None
        labels = entry.get("labels")
        labels = dict(labels) if isinstance(labels, dict) else {}
        labels["worker"] = worker
        return (str(entry["name"]), tuple(sorted(labels.items())))

    # ------------------------------------------------------------------
    def workers(self) -> list[dict]:
        """Liveness rows, one per worker ever seen (stale = stopped)."""
        now = self.clock()
        with self._lock:
            rows = []
            for row in sorted(self._workers.values(),
                              key=lambda r: r["worker"]):
                age = now - row["last_seen"]
                rows.append(
                    {
                        "worker": row["worker"],
                        "pushes": row["pushes"],
                        "seq": row["seq"],
                        "age_seconds": round(age, 3),
                        "stale": age > self.stale_after,
                    }
                )
        return rows

    def metrics_snapshot(self) -> dict:
        """Merged series in registry-snapshot row shape (worker-labelled).

        Includes a synthetic ``telemetry_worker_up`` gauge per worker
        (0.0 once stale) so a Prometheus alert on dead workers is one
        expression away.
        """
        with self._lock:
            counters = [
                {"name": name, "labels": dict(labels), "value": value}
                for (name, labels), value in sorted(self._counters.items())
            ]
            gauges = [
                {"name": name, "labels": dict(labels), "value": value}
                for (name, labels), value in sorted(self._gauges.items())
            ]
            histograms = [
                {"name": name, "labels": dict(labels), **dict(merged)}
                for (name, labels), merged in sorted(
                    self._histograms.items()
                )
            ]
        for row in self.workers():
            gauges.append(
                {
                    "name": "telemetry_worker_up",
                    "labels": {"worker": row["worker"]},
                    "value": 0.0 if row["stale"] else 1.0,
                }
            )
            gauges.append(
                {
                    "name": "telemetry_push_age_seconds",
                    "labels": {"worker": row["worker"]},
                    "value": row["age_seconds"],
                }
            )
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}

    def fleet_snapshot(self) -> dict:
        """The ``GET /metrics`` JSON block: liveness + merged series."""
        return {"workers": self.workers(), "metrics": self.metrics_snapshot()}

    def __len__(self) -> int:
        with self._lock:
            return len(self._workers)


def render_fleet_prometheus(
    registry: "MetricsRegistry | None" = None,
    hub: "TelemetryHub | None" = None,
) -> str:
    """Local registry + merged fleet series as one exposition document.

    ``# TYPE`` declarations are shared across both halves, so a metric
    present locally and in worker pushes is declared once.  With no hub
    (or an empty one) the output is byte-identical to
    :func:`~repro.obs.metrics.render_prometheus`.
    """
    registry = registry if registry is not None else REGISTRY
    lines: list[str] = []
    typed: set[str] = set()
    append_snapshot_lines(lines, typed, registry.snapshot())
    if hub is not None and len(hub):
        append_snapshot_lines(lines, typed, hub.metrics_snapshot())
    return "\n".join(lines) + "\n"


__all__ = [
    "MAX_PUSH_FAILURES",
    "TelemetryHub",
    "TelemetryPusher",
    "render_fleet_prometheus",
]
