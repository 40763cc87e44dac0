"""Straggler benchmark: shard-level vs job-level leasing wall-clock.

A coordinated fleet is only as fast as its slowest lease.  With
shard-level leases, one slow worker that grabs a shard commits to the
whole thing — every other worker finishes and idles while the straggler
grinds through its half of the sweep.  Job-level leasing (a
``ShardCoordinator`` over ``job_ranges(plan, N)`` / ``coordinate
--lease-jobs N``) bounds the damage: the straggler holds at most N jobs at a time, so the
fast workers absorb the rest of the plan and the wall-clock shrinks to
roughly the straggler's *last unit*, not its whole shard.

This script builds one plan, injects per-request latency into two
pull-based workers — one slow, one fast — and runs the same fleet twice,
through the one coordinator:

* ``shard-level`` — ``ShardPlanner(--shards).split(plan)`` (one lease
  per strided shard);
* ``job-level``   — ``job_ranges(plan, --lease-jobs)`` (one lease per
  contiguous job range).

Both runs must merge record-for-record identical to a serial run (the
coordinator parity invariant); the reported speedup is
``shard_time / job_time``.  Run it standalone::

    PYTHONPATH=src python benchmarks/bench_straggler.py
    PYTHONPATH=src python benchmarks/bench_straggler.py \
        --slow-latency 0.05 --lease-jobs 2 --min-speedup 1.3

``--min-speedup X`` exits non-zero unless job-level leasing beats
shard-level by that factor.
"""

from __future__ import annotations

import argparse
import sys
import threading
import time

from repro.api import Session
from repro.backends import StubBackend
from repro.eval import SweepConfig, SweepExecutor, SweepPlanner
from repro.problems import PromptLevel
from repro.service import (
    ServiceApp,
    ShardCoordinator,
    ShardPlanner,
    in_process_transport,
    job_ranges,
    run_worker,
)


class LatencyStub(StubBackend):
    """Deterministic stub whose every generate call blocks for a bit —
    the per-worker knob that makes one fleet member a straggler."""

    def __init__(self, latency: float, **kwargs):
        super().__init__(**kwargs)
        self.latency = latency

    def generate(self, model, prompt, config):
        time.sleep(self.latency)
        return super().generate(model, prompt, config)


def build_plan(args):
    reference = StubBackend(model_names=tuple(args.models.split(",")))
    config = SweepConfig(
        temperatures=tuple(float(t) for t in args.temperatures.split(",")),
        completions_per_prompt=(args.n,),
        levels=(PromptLevel.LOW,),
        problem_numbers=tuple(range(1, args.problems + 1)),
    )
    return reference, SweepPlanner(reference).plan(config)


def run_fleet(args, units):
    """Two workers (one slow, one fast) drain one coordinator serving
    ``units``; returns (wall seconds, merged result)."""
    coordinator = ShardCoordinator(units, lease_seconds=300)
    app = ServiceApp(Session(backend="stub"), coordinator=coordinator)
    model_names = tuple(args.models.split(","))

    def worker(latency, name):
        run_worker(
            transport=in_process_transport(app),
            session=Session(
                backend=LatencyStub(latency, model_names=model_names)
            ),
            worker_id=name,
            poll_seconds=0.01,
            max_idle_polls=2000,
        )

    threads = [
        threading.Thread(
            target=worker, args=(args.slow_latency, "straggler")
        ),
        threading.Thread(target=worker, args=(args.fast_latency, "fast")),
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    return elapsed, coordinator.result()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--models", default="stub-a,stub-b",
                        help="comma-separated stub variant names")
    parser.add_argument("--problems", type=int, default=6,
                        help="benchmark problems per model (1..N)")
    parser.add_argument("--temperatures", default="0.1,0.5")
    parser.add_argument("--n", type=int, default=1)
    parser.add_argument("--shards", type=int, default=2,
                        help="shard count for the shard-level run")
    parser.add_argument("--lease-jobs", type=int, default=2,
                        help="job-range size for the job-level run")
    parser.add_argument("--slow-latency", type=float, default=0.05,
                        help="injected seconds per request on the straggler")
    parser.add_argument("--fast-latency", type=float, default=0.002,
                        help="injected seconds per request on the fast worker")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless shard/job wall-clock >= this factor")
    args = parser.parse_args(argv)

    reference, plan = build_plan(args)
    serial = SweepExecutor(reference).run(plan)
    print(
        f"{len(plan.jobs)} jobs, straggler {args.slow_latency * 1000:.0f}ms"
        f"/req vs fast {args.fast_latency * 1000:.0f}ms/req; "
        f"{args.shards} shards vs lease_jobs={args.lease_jobs}"
    )

    shard_time, shard_result = run_fleet(
        args, ShardPlanner(args.shards).split(plan)
    )
    print(f"  shard-level: {shard_time:6.2f}s "
          f"({shard_result.stats['shards']} leases)")
    job_time, job_result = run_fleet(args, job_ranges(plan, args.lease_jobs))
    print(f"  job-level:   {job_time:6.2f}s "
          f"({job_result.stats['shards']} leases)")

    for label, result in (("shard", shard_result), ("job", job_result)):
        if result.sweep.records != serial.sweep.records:
            print(f"PARITY FAILURE: {label}-level merge != serial run")
            return 1
    print("record parity: OK (both granularities byte-identical to serial)")

    speedup = shard_time / job_time if job_time else float("inf")
    print(f"job-level vs shard-level: {speedup:5.2f}x faster under one "
          f"straggler")
    if args.min_speedup is not None and speedup < args.min_speedup:
        print(f"FAIL: speedup {speedup:.2f}x < required "
              f"{args.min_speedup}x")
        return 1
    if args.min_speedup is not None:
        print(f"OK: speedup {speedup:.2f}x >= {args.min_speedup}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
