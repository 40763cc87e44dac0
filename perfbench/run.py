"""Run one workload of the repository benchmark and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload paper-sweep --seed 0 --seconds 30 --trace 0

Workloads: ``paper-sweep``, ``functional``, ``fleet-cold`` (see
``workloads.py`` and ``BENCHMARK.json``).  The run sets the program
up several times (``setup_s`` is the median), builds the known answers
for the seed, then runs whole sweeps until ``--seconds`` have passed
(and, untraced, at least ``MIN_SWEEPS``), checking every record of
every sweep against the known answers.  The verdict percentiles are
taken over each input's median latency across the sweeps.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced sweeps
and reports the per-layer metrics of the traced ones (averaged per
sweep) plus the tracing overhead.  ``--out FILE`` also appends the
result to a JSON-lines file that ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from hostspeed import HostSpeed
from known import count_mismatches
from tracing import PER_LAYER, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: scratch space for verdict stores, removed when the run ends
WORK_ROOT = ROOT / ".perfbench_work"

WORKLOAD_NAMES = ("paper-sweep", "functional", "fleet-cold")
#: set-up is measured this many times per run; setup_s is the median
SETUP_REPS = 7
#: untraced runs sweep at least this often, so every verdict input has
#: this many latencies to take its median of
MIN_SWEEPS = 5
#: host-speed probes per sweep (see hostspeed.py)
PROBES_PER_SWEEP = 100
#: never start another sweep after this many seconds
HARD_STOP_S = 140.0

#: (name, unit) of every end-to-end metric
END_TO_END = (
    ("records_per_s", "records/s"),
    ("verdict_p50_ms", "ms"),
    ("verdict_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the result to this JSONL file")
    return parser.parse_args(argv)


def load_workloads():
    """Import the program and the workloads module afresh."""
    for name in list(sys.modules):
        if name == "repro" or name.startswith("repro.") or name == "workloads":
            del sys.modules[name]
    return importlib.import_module("workloads")


def set_up(name: str, seed: int, workdir: str, host):
    """The workload, set up ``SETUP_REPS`` times; returns it and setup_s.

    Each repetition re-imports the program and rebuilds backend, session
    and plan (and starts the coordinator); setup_s is the median.
    """
    times = []
    for _ in range(SETUP_REPS):
        def build():
            built = load_workloads().WORKLOADS[name](seed, workdir)
            built.setup()
            return built

        workload, _, seconds = timed(host, build)
        times.append(seconds)
        workload.close()
    return workload, statistics.median(times)


def timed(host, work):
    """(result, wall seconds, scaled seconds) of ``work()``.

    The scaled time leaves out the probes that ran inside ``work`` and
    is scaled by their median; work that ran no probe is probed after.
    """
    first = len(host.durations)
    begin = perf_counter()
    result = work()
    wall = perf_counter() - begin
    inside = host.spent_since(first)
    if len(host.durations) == first:
        for _ in range(3):
            host.measure()
    return result, wall, (wall - inside) * host.scale(first)


def percentile(values, share: float) -> float:
    """Nearest-rank percentile of ``values`` (share in [0, 1])."""
    ordered = sorted(values)
    rank = min(max(1, math.ceil(share * len(ordered))), len(ordered))
    return ordered[rank - 1]


def records_digest(records) -> str:
    return hashlib.sha256(repr(records).encode()).hexdigest()[:16]


def run_sweeps(workload, reference, seconds: float, trace: bool,
               host) -> dict:
    """Sweep until the time is up; check every record of every sweep.

    Each sweep's wall time, less the probes it ran, is scaled by the
    host speed its probes measured.  With ``trace``, sweeps alternate
    untraced and traced (ending on a traced one) and each traced sweep
    yields per-layer metrics.
    """
    walls, traced_walls, raw_walls, layer_rows = [], [], [], []
    mismatches = errors = attempted = 0
    digest = ""
    started = perf_counter()
    index = 0
    while True:
        traced = trace and index % 2 == 1
        prepared = workload.prepare()
        gc.collect()
        tracer = Tracer() if traced else None
        if tracer is not None:
            tracer.install()
        try:
            result, wall, net = timed(host, lambda: workload.run(prepared))
        finally:
            if tracer is not None:
                tracer.uninstall()
            workload.finish(prepared)
        records = result.sweep.records
        mismatches += count_mismatches(records, reference)
        errors += len(result.errors)
        attempted += len(reference)
        digest = records_digest(records)
        if tracer is not None:
            traced_walls.append(net)
            layer_rows.append(tracer.metrics(wall))
        else:
            walls.append(net)
            raw_walls.append(wall)
        index += 1
        elapsed = perf_counter() - started
        if elapsed >= HARD_STOP_S:
            break
        if elapsed < seconds or (trace and index % 2 == 1):
            continue
        if trace or index >= MIN_SWEEPS:
            break
    return {
        "walls": walls, "traced_walls": traced_walls, "raw_walls": raw_walls,
        "layer_rows": layer_rows, "mismatches": mismatches,
        "errors": errors, "attempted": attempted, "digest": digest,
        "sweeps": index,
    }


def input_latencies(workload, host) -> list[float]:
    """Each verdict input's median scaled latency over the run's sweeps.

    Every sweep evaluates the same inputs afresh.  A pause that lands in
    one evaluation - a collector pass, the host taking the core away -
    moves one of that input's samples but not its median, so percentiles
    over these medians describe the inputs rather than the pauses.
    """
    by_input = defaultdict(list)
    for key, moment, seconds in workload.samples:
        by_input[key].append(seconds * host.scale_at(moment))
    return [statistics.median(values) for values in by_input.values()]


def end_to_end_metrics(workload, reference, runs, setup_s, host) -> dict:
    latencies = input_latencies(workload, host)
    per_sweep = [len(reference) / wall for wall in runs["walls"]]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "records_per_s": statistics.median(per_sweep),
        "verdict_p50_ms": percentile(latencies, 0.50) * 1000,
        "verdict_p99_ms": percentile(latencies, 0.99) * 1000,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer_metrics(runs, failed_share: float) -> dict:
    rows = runs["layer_rows"]
    metrics = {name: statistics.fmean(row[name] for row in rows)
               for name in rows[0]}
    metrics["trace.overhead_share"] = (
        statistics.median(runs["traced_walls"])
        / statistics.median(runs["walls"]) - 1
    )
    metrics["verdict_mismatches"] = runs["mismatches"]
    metrics["failed_share"] = failed_share
    return metrics


def benchmark(name: str, seed: int, seconds: float, trace: bool,
              workdir: str) -> tuple[dict, str]:
    """Set up, sweep and check one workload; returns (result, summary)."""
    host = HostSpeed()
    workload, setup_s = set_up(name, seed, workdir, host)
    reference = workload.reference()
    host.every_jobs = max(1, len(workload.plan.jobs) // PROBES_PER_SWEEP)
    workload.progress = host.progress
    # Every full collection in the sweeps would otherwise rescan what is
    # alive now - the reference records, the loaded program, what the
    # set-up repetitions left - and on functional those pauses (some 15
    # a sweep, ~20 ms each) set verdict_p99_ms instead of the inputs.
    gc.collect()
    gc.freeze()
    try:
        runs = run_sweeps(workload, reference, seconds, trace, host)
    finally:
        gc.unfreeze()
    failed = runs["errors"] + runs["mismatches"]
    failed_share = failed / runs["attempted"]
    if trace:
        values = per_layer_metrics(runs, failed_share)
        units = {metric: unit for metric, unit, _ in PER_LAYER}
    else:
        values = end_to_end_metrics(workload, reference, runs, setup_s, host)
        units = dict(END_TO_END)
    result = {
        "correct": failed == 0,
        "attempted": runs["attempted"],
        "failed": failed,
        "metrics": {metric: {"value": values[metric], "unit": unit}
                    for metric, unit in units.items()},
    }
    summary = (
        f"# {name} seed={seed} sweeps={runs['sweeps']} "
        f"records_per_sweep={len(reference)} "
        f"verdict_samples={len(workload.samples)} "
        f"verdict_inputs={len({key for key, _, _ in workload.samples})} "
        f"job_errors={runs['errors']} "
        f"verdict_mismatches={runs['mismatches']} "
        f"failed_share={failed_share} records_digest={runs['digest']} "
        f"wall_s={[round(w, 3) for w in runs['raw_walls']]} "
        f"scaled_s={[round(w, 3) for w in runs['walls']]}"
    )
    return result, summary


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    try:
        result, summary = benchmark(args.workload, args.seed, args.seconds,
                                    bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(summary)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "trace": args.trace, "result": result,
            }) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
