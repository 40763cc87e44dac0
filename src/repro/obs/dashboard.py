"""Live fleet dashboard: the ``repro top`` terminal view + ``/dashboard``.

Everything here renders from two JSON documents any repro service
already serves — ``GET /metrics`` (registry snapshot, fleet telemetry,
coordinator summary) and ``GET /shard/status`` (units, leases,
per-worker throughput) — so the dashboard needs no new state, only
polling.  Three consumers share the code:

* :func:`fetch_view` + :func:`render_dashboard` — one poll cycle
  rendered as a fixed-width terminal page;
* :func:`run_top` — the ``repro top`` loop (``--once`` renders a single
  frame for CI and piping);
* :func:`dashboard_html` — a self-contained HTML page (inline JS, no
  external assets) served as ``GET /dashboard`` by the eval service,
  polling the same two routes from the browser.
"""

from __future__ import annotations

import sys
import time
from typing import Callable

#: ANSI clear-screen + home, written before every repaint of the loop
CLEAR = "\x1b[2J\x1b[H"


def fetch_view(base_url: str, timeout: float = 5.0) -> dict:
    """One poll of ``/metrics`` + ``/shard/status``.

    ``/shard/status`` legitimately fails on a plain eval service (no
    coordinator attached), so each document is fetched independently
    and failures land in ``errors`` instead of raising — the renderer
    shows whatever half is available.
    """
    # imported here: repro.service imports repro.obs at module level
    from ..backends.base import BackendError
    from ..service.client import http_transport

    base = base_url.rstrip("/")
    get = http_transport(base, timeout)
    view: dict = {"url": base, "metrics": None, "status": None,
                  "errors": []}
    try:
        for key, path in (("metrics", "/metrics"),
                          ("status", "/shard/status")):
            try:
                view[key] = get("GET", path)
            except BackendError as exc:
                view["errors"].append(f"{path}: {exc}")
    finally:
        get.close()
    return view


# ----------------------------------------------------------------------
# Derivations over the polled documents
# ----------------------------------------------------------------------
def stage_split(metrics: "dict | None") -> list[dict]:
    """Aggregate ``stage_seconds`` histograms into per-stage rows."""
    totals: dict[str, dict] = {}
    for row in (metrics or {}).get("histograms", ()):
        if row.get("name") != "stage_seconds":
            continue
        stage = str(row.get("labels", {}).get("stage", "?"))
        bucket = totals.setdefault(stage, {"count": 0, "seconds": 0.0})
        bucket["count"] += int(row.get("count", 0))
        bucket["seconds"] += float(row.get("sum", 0.0))
    grand = sum(bucket["seconds"] for bucket in totals.values())
    return [
        {
            "stage": stage,
            "count": bucket["count"],
            "seconds": bucket["seconds"],
            "share": (bucket["seconds"] / grand) if grand > 0 else 0.0,
        }
        for stage, bucket in sorted(
            totals.items(), key=lambda item: -item[1]["seconds"]
        )
    ]


def counter_rollup(metrics: "dict | None", name: str,
                   label: str) -> dict[str, float]:
    """Sum a counter's series by one label's value (e.g. repair verdicts)."""
    rollup: dict[str, float] = {}
    for row in (metrics or {}).get("counters", ()):
        if row.get("name") != name:
            continue
        key = str(row.get("labels", {}).get(label, "?"))
        rollup[key] = rollup.get(key, 0.0) + float(row.get("value", 0.0))
    return rollup


def _fmt_rate(numerator: float, denominator: float) -> str:
    return f"{numerator / denominator:.1%}" if denominator > 0 else "-"


def render_dashboard(view: dict, width: int = 78) -> str:
    """One terminal page from a :func:`fetch_view` result."""
    lines: list[str] = []
    rule = "-" * width
    stamp = time.strftime("%H:%M:%S")
    lines.append(f"repro top — {view.get('url', '?')} — {stamp}")
    lines.append(rule)

    metrics_doc = view.get("metrics") or {}
    registry = metrics_doc.get("metrics") or {}
    status = view.get("status")

    # -- coordinator progress + lease table -----------------------------
    if status:
        jobs_total = status.get("jobs_total", 0)
        jobs_done = status.get("jobs_done", 0)
        lines.append(
            f"sweep: {jobs_done}/{jobs_total} jobs — units "
            f"{status.get('done', 0)} done / {status.get('leased', 0)} "
            f"leased / {status.get('pending', 0)} pending — records "
            f"{status.get('records_merged', 0)} merged"
            f" — store hits {status.get('store_hits', 0)}"
            + (
                f" — {status['leases_reclaimed']} lease(s) reclaimed"
                if status.get("leases_reclaimed") else ""
            )
        )
        leases = status.get("leases") or []
        if leases:
            lines.append("")
            lines.append(
                f"{'lease':<14}{'unit':>6}  {'worker':<22}"
                f"{'expires':>9}"
            )
            for row in leases[:10]:
                lines.append(
                    f"{str(row.get('lease_id', ''))[:12]:<14}"
                    f"{row.get('shard_index', '?'):>6}  "
                    f"{str(row.get('worker_id', '?')):<22}"
                    f"{row.get('expires_in', 0.0):>8.1f}s"
                )
            if len(leases) > 10:
                lines.append(f"  ... {len(leases) - 10} more lease(s)")
    else:
        lines.append("sweep: no coordinator attached")

    # -- per-worker throughput (coordinator) + liveness (telemetry) -----
    fleet = metrics_doc.get("fleet") or {}
    liveness = {
        row["worker"]: row for row in fleet.get("workers", ())
    }
    workers = (status or {}).get("workers") or []
    if workers or liveness:
        lines.append("")
        lines.append(
            f"{'worker':<22}{'units':>6}{'jobs':>7}{'records':>9}"
            f"{'errors':>8}{'jobs/s':>8}  {'telemetry':<12}"
        )
        seen = set()
        for row in workers:
            worker = str(row.get("worker_id", "?"))
            seen.add(worker)
            live = liveness.get(worker)
            if live is None:
                mark = "-"
            elif live["stale"]:
                mark = f"STALE {live['age_seconds']:.0f}s"
            else:
                mark = f"up {live['age_seconds']:.0f}s ago"
            lines.append(
                f"{worker:<22}{row.get('units', 0):>6}"
                f"{row.get('jobs', 0):>7}{row.get('records', 0):>9}"
                f"{row.get('errors', 0):>8}"
                f"{row.get('jobs_per_second', 0.0):>8.2f}  {mark:<12}"
            )
        for worker, live in sorted(liveness.items()):
            if worker in seen:
                continue
            mark = (
                f"STALE {live['age_seconds']:.0f}s" if live["stale"]
                else f"up {live['age_seconds']:.0f}s ago"
            )
            lines.append(
                f"{worker:<22}{'-':>6}{'-':>7}{'-':>9}{'-':>8}{'-':>8}"
                f"  {mark:<12}"
            )

    # -- stage split ----------------------------------------------------
    split = stage_split(registry)
    if split:
        lines.append("")
        lines.append(f"{'stage':<12}{'count':>8}{'seconds':>11}{'share':>8}")
        for row in split:
            lines.append(
                f"{row['stage']:<12}{row['count']:>8}"
                f"{row['seconds']:>11.3f}{row['share']:>8.1%}"
            )

    # -- repair lift / error + rejection rates --------------------------
    repair = counter_rollup(registry, "repair_attempts", "verdict")
    cache = counter_rollup(registry, "evaluator_cache", "result")
    analysis = counter_rollup(registry, "analysis_findings_total", "code")
    tail: list[str] = []
    if repair:
        attempts = sum(repair.values())
        tail.append(
            "repair: "
            + ", ".join(
                f"{verdict}={int(count)}"
                for verdict, count in sorted(repair.items())
            )
            + f" — lift {_fmt_rate(repair.get('pass', 0.0), attempts)}"
        )
    evaluations = sum(cache.values())
    job_errors = sum(
        float(row.get("errors", 0)) for row in workers
    ) if workers else 0.0
    jobs_done_total = sum(
        float(row.get("jobs", 0)) for row in workers
    ) if workers else 0.0
    rejections = sum(analysis.values())
    # every answer that did not run an evaluation
    answered = sum(cache.get(result, 0.0)
                   for result in ("hit", "store_hit", "token_hit"))
    if evaluations or rejections or job_errors:
        tail.append(
            f"evaluations: {int(evaluations)} "
            f"(cache hit {_fmt_rate(answered, evaluations)}) — "
            f"analysis findings: {int(rejections)} — "
            f"job errors: {_fmt_rate(job_errors, jobs_done_total)}"
        )
    if tail:
        lines.append("")
        lines.extend(tail)

    for error in view.get("errors", ()):
        if "shard/status" in error and status is None:
            continue  # already summarized as "no coordinator attached"
        lines.append("")
        lines.append(f"poll error: {error}")

    lines.append(rule)
    return "\n".join(lines)


def run_top(
    url: str,
    interval: float = 2.0,
    once: bool = False,
    timeout: float = 5.0,
    out: "Callable[[str], None] | None" = None,
    sleep: Callable[[float], None] = time.sleep,
) -> int:
    """The ``repro top`` loop; returns the process exit code.

    ``--once`` (tests, CI, piping into files) renders a single frame
    without the clear-screen escape and exits 0 on a reachable service,
    1 otherwise.
    """
    emit = out if out is not None else (
        lambda text: print(text, file=sys.stdout, flush=True)
    )
    while True:
        view = fetch_view(url, timeout=timeout)
        page = render_dashboard(view)
        if once:
            emit(page)
            reachable = view["metrics"] is not None or view["status"] is not None
            return 0 if reachable else 1
        emit(CLEAR + page)
        try:
            sleep(interval)
        except KeyboardInterrupt:
            return 0


# ----------------------------------------------------------------------
# The /dashboard HTML page
# ----------------------------------------------------------------------
_DASHBOARD_HTML = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>repro dashboard</title>
<style>
  body { font-family: ui-monospace, Menlo, Consolas, monospace;
         background: #111; color: #ddd; margin: 1.5rem; }
  h1 { font-size: 1.1rem; } h2 { font-size: 0.95rem; color: #9cf; }
  table { border-collapse: collapse; margin: 0.4rem 0 1rem; }
  th, td { padding: 0.15rem 0.7rem; text-align: right;
           border-bottom: 1px solid #333; }
  th:first-child, td:first-child { text-align: left; }
  .stale { color: #f66; } .ok { color: #6f6; }
  #err { color: #f96; white-space: pre-line; }
  small { color: #888; }
</style>
</head>
<body>
<h1>repro dashboard <small id="stamp"></small></h1>
<div id="sweep"></div>
<h2>workers</h2><table id="workers"></table>
<h2>leases</h2><table id="leases"></table>
<h2>stage split</h2><table id="stages"></table>
<div id="err"></div>
<script>
"use strict";
const REFRESH_MS = 2000;
function cell(tag, text, cls) {
  const el = document.createElement(tag);
  el.textContent = text;
  if (cls) el.className = cls;
  return el;
}
function fill(id, header, rows) {
  const table = document.getElementById(id);
  table.textContent = "";
  const head = document.createElement("tr");
  header.forEach(h => head.appendChild(cell("th", h)));
  table.appendChild(head);
  rows.forEach(r => {
    const tr = document.createElement("tr");
    r.forEach(c => tr.appendChild(
      Array.isArray(c) ? cell("td", c[0], c[1]) : cell("td", c)));
    table.appendChild(tr);
  });
}
function stageSplit(metrics) {
  const totals = {};
  (metrics.histograms || []).forEach(row => {
    if (row.name !== "stage_seconds") return;
    const stage = (row.labels || {}).stage || "?";
    const t = totals[stage] || (totals[stage] = {count: 0, seconds: 0});
    t.count += row.count; t.seconds += row.sum;
  });
  const grand = Object.values(totals)
    .reduce((acc, t) => acc + t.seconds, 0);
  return Object.entries(totals)
    .sort((a, b) => b[1].seconds - a[1].seconds)
    .map(([stage, t]) => [stage, t.count, t.seconds.toFixed(3),
      grand > 0 ? (100 * t.seconds / grand).toFixed(1) + "%" : "-"]);
}
async function poll() {
  const errors = [];
  let metricsDoc = null, status = null;
  try { metricsDoc = await (await fetch("/metrics")).json(); }
  catch (e) { errors.push("/metrics: " + e); }
  try {
    const resp = await fetch("/shard/status", {method: "GET"});
    if (resp.ok) status = await resp.json();
  } catch (e) { /* no coordinator attached */ }
  document.getElementById("stamp").textContent =
    new Date().toLocaleTimeString();
  if (status) {
    document.getElementById("sweep").textContent =
      `sweep: ${status.jobs_done}/${status.jobs_total} jobs — ` +
      `units ${status.done} done / ${status.leased} leased / ` +
      `${status.pending} pending — ${status.records_merged} records` +
      ` — store hits ${status.store_hits}`;
  } else {
    document.getElementById("sweep").textContent =
      "sweep: no coordinator attached";
  }
  const fleet = (metricsDoc || {}).fleet || {};
  const liveness = {};
  (fleet.workers || []).forEach(w => { liveness[w.worker] = w; });
  const workerRows = ((status || {}).workers || []).map(w => {
    const live = liveness[w.worker_id];
    delete liveness[w.worker_id];
    const mark = !live ? ["-", ""] : live.stale
      ? [`STALE ${live.age_seconds.toFixed(0)}s`, "stale"]
      : [`up ${live.age_seconds.toFixed(0)}s ago`, "ok"];
    return [w.worker_id, w.units, w.jobs, w.records, w.errors,
            w.jobs_per_second.toFixed(2), mark];
  });
  Object.entries(liveness).forEach(([worker, live]) => {
    workerRows.push([worker, "-", "-", "-", "-", "-",
      live.stale ? [`STALE ${live.age_seconds.toFixed(0)}s`, "stale"]
                 : [`up ${live.age_seconds.toFixed(0)}s ago`, "ok"]]);
  });
  fill("workers",
       ["worker", "units", "jobs", "records", "errors", "jobs/s",
        "telemetry"],
       workerRows);
  fill("leases", ["lease", "unit", "worker", "expires"],
       ((status || {}).leases || []).map(l =>
         [String(l.lease_id).slice(0, 12), l.shard_index, l.worker_id,
          l.expires_in.toFixed(1) + "s"]));
  fill("stages", ["stage", "count", "seconds", "share"],
       stageSplit((metricsDoc || {}).metrics || {}));
  document.getElementById("err").textContent = errors.join("\\n");
}
poll();
setInterval(poll, REFRESH_MS);
</script>
</body>
</html>
"""


def dashboard_html() -> str:
    """The self-contained ``GET /dashboard`` page (no external assets)."""
    return _DASHBOARD_HTML


__all__ = [
    "counter_rollup",
    "dashboard_html",
    "fetch_view",
    "render_dashboard",
    "run_top",
    "stage_split",
]
