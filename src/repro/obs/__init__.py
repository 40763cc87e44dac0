"""Observability: metrics registry, span tracing, trace-log stats.

The cross-cutting layer behind every "measure where time goes" item on
the roadmap (sim-compile profiling, adaptive lease sizing, multi-tenant
p99 gates).  Three pieces, all stdlib-only:

* :mod:`repro.obs.metrics` — a process-wide :class:`MetricsRegistry` of
  counters, gauges, and streaming log-bucket histograms (p50/p95/p99),
  rendered as JSON (``GET /metrics``) or Prometheus-style text
  (``GET /metrics/prom``);
* :mod:`repro.obs.trace` — span-based tracing: a per-job trace context
  (:func:`job_tags`) flows planner → executor → backend → evaluator →
  simulator and through the repair loop; spans fan out to registered
  sinks, with :class:`TraceWriter` persisting them as replayable NDJSON
  (``--trace FILE`` on ``sweep``/``work``/``coordinate``);
* :mod:`repro.obs.stats` — the ``repro stats``/``repro hotspots``
  summarizers: per-stage time split, per-worker throughput, job-latency
  percentiles and construct-level hotspot rankings from one or more
  trace files (directories and globs expand);
* :mod:`repro.obs.profile` — the opt-in simulator profiler: wall time
  and eval counts per netlist construct, emitted as ``profile`` frames
  into the same trace files;
* :mod:`repro.obs.collect` — fleet telemetry: workers push registry
  deltas to the coordinator's ``POST /telemetry``; one coordinator
  scrape covers the fleet with per-worker labels and staleness marks;
* :mod:`repro.obs.dashboard` — the ``repro top`` terminal dashboard and
  the self-contained ``GET /dashboard`` HTML page, both polling
  ``/metrics`` + ``/shard/status``.

Stage timers (parse/elaborate/sim/testbench per problem) are always on
and feed the registry; spans cost nothing unless a sink is installed
(:func:`tracing_active` is a single list check on the hot path), and
the simulator profiler is off unless both enabled and traced.
"""

from .collect import (
    TelemetryHub,
    TelemetryPusher,
    render_fleet_prometheus,
)
from .dashboard import (
    dashboard_html,
    fetch_view,
    render_dashboard,
    run_top,
)
from .metrics import (
    Histogram,
    MetricsRegistry,
    REGISTRY,
    append_snapshot_lines,
    get_registry,
    render_prometheus,
    reset_registry,
)
from .profile import (
    SimProfiler,
    disable_profiling,
    enable_profiling,
    maybe_sim_profiler,
    profiling,
    profiling_enabled,
    record_profile,
)
from .stats import (
    TraceFormatError,
    expand_trace_paths,
    load_trace,
    render_hotspots,
    render_stats,
    summarize_traces,
)
from .trace import (
    TraceWriter,
    add_sink,
    current_tags,
    job_tags,
    record_frame,
    record_span,
    remove_sink,
    span,
    tracing_active,
)

STAGES = ("generate", "parse", "elaborate", "analysis", "sim", "testbench",
          "engine")
"""Leaf stage names the per-stage timers emit (see ``stage_seconds``)."""


def observe_stage(stage: str, seconds: float, **tags) -> None:
    """One always-on stage timing: registry histogram + optional span.

    The registry side is unconditional (this is the profile that gates
    the sim-compile work); the span side only fires when a trace sink
    is installed, so the uninstrumented hot path pays one dict update.
    """
    labels = {"stage": stage}
    if "problem" in tags:
        labels["problem"] = tags["problem"]
    REGISTRY.observe("stage_seconds", seconds, **labels)
    if tracing_active():
        record_span(stage, seconds, **tags)


__all__ = [
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "STAGES",
    "SimProfiler",
    "TelemetryHub",
    "TelemetryPusher",
    "TraceFormatError",
    "TraceWriter",
    "add_sink",
    "append_snapshot_lines",
    "current_tags",
    "dashboard_html",
    "disable_profiling",
    "enable_profiling",
    "expand_trace_paths",
    "fetch_view",
    "get_registry",
    "job_tags",
    "load_trace",
    "maybe_sim_profiler",
    "observe_stage",
    "profiling",
    "profiling_enabled",
    "record_frame",
    "record_profile",
    "record_span",
    "remove_sink",
    "render_dashboard",
    "render_fleet_prometheus",
    "render_hotspots",
    "render_prometheus",
    "render_stats",
    "reset_registry",
    "run_top",
    "span",
    "summarize_traces",
    "tracing_active",
]
