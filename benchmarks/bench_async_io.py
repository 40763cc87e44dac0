"""Latency benchmark: the thread executor hides a latency-bound backend.

Real deployments talk to *remote* model endpoints, where each job spends
its time waiting on the network.  This script injects a fixed
per-request latency into a deterministic stub backend (the calling
thread sleeps) and times the same plan two ways:

* ``serial`` — SweepExecutor with one worker: every request waits in
  turn;
* ``thread`` — SweepExecutor with a pool of --workers threads, so that
  many requests wait at once.

Both must agree record-for-record (the parity invariant every executor
honours).  Run it standalone::

    PYTHONPATH=src python benchmarks/bench_async_io.py
    PYTHONPATH=src python benchmarks/bench_async_io.py \
        --latency 0.05 --workers 4 --min-speedup 2.0

``--min-speedup X`` exits non-zero unless the thread pool beats the
serial run by that factor.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.backends import StubBackend
from repro.eval import Evaluator, SweepConfig, SweepExecutor, SweepPlanner
from repro.problems import PromptLevel


class LatencyStub(StubBackend):
    """Sync stub that blocks the calling thread per request."""

    def __init__(self, latency: float, **kwargs):
        super().__init__(**kwargs)
        self.latency = latency

    def generate(self, model, prompt, config):
        time.sleep(self.latency)
        return super().generate(model, prompt, config)


def build_plan(args):
    reference = StubBackend(model_names=tuple(args.models.split(",")))
    config = SweepConfig(
        temperatures=tuple(
            float(t) for t in args.temperatures.split(",")
        ),
        completions_per_prompt=(args.n,),
        levels=(PromptLevel.LOW,),
        problem_numbers=tuple(range(1, args.problems + 1)),
    )
    return SweepPlanner(reference).plan(config)


def bench(factory, plan, repeat):
    best = None
    result = None
    for _ in range(repeat):
        started = time.perf_counter()
        result = factory().run(plan)
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--models", default="stub-a,stub-b",
                        help="comma-separated stub variant names")
    parser.add_argument("--problems", type=int, default=8,
                        help="benchmark problems per model (1..N)")
    parser.add_argument("--temperatures", default="0.1,0.5")
    parser.add_argument("--n", type=int, default=2)
    parser.add_argument("--latency", type=float, default=0.02,
                        help="injected seconds per generation request")
    parser.add_argument("--workers", type=int, default=8,
                        help="thread-pool width")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per executor; best time wins")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless serial/thread >= this factor")
    args = parser.parse_args(argv)

    plan = build_plan(args)
    print(
        f"{len(plan.jobs)} jobs ({plan.completions_planned} completions), "
        f"{args.latency * 1000:.0f}ms injected latency, "
        f"{args.workers} workers"
    )

    model_names = tuple(args.models.split(","))
    executors = (
        ("serial", 1),
        ("thread", args.workers),
    )
    times = {}
    records = {}
    for label, workers in executors:
        times[label], result = bench(
            lambda workers=workers: SweepExecutor(
                LatencyStub(args.latency, model_names=model_names),
                evaluator=Evaluator(), workers=workers,
            ),
            plan, args.repeat,
        )
        records[label] = result.sweep.records
        print(f"  {label:>6}: {times[label]:7.2f}s "
              f"({len(result.sweep)} records)")

    if records["serial"] != records["thread"]:
        print("PARITY FAILURE: executors disagree on records")
        return 1
    print("record parity: OK (serial and thread byte-identical)")

    speedup = times["serial"] / times["thread"]
    print(f"thread vs serial: {speedup:5.2f}x faster "
          f"({args.workers} requests in flight vs 1)")
    if args.min_speedup is not None and speedup < args.min_speedup:
        print(f"FAIL: thread speedup {speedup:.2f}x < "
              f"required {args.min_speedup}x")
        return 1
    if args.min_speedup is not None:
        print(f"OK: thread speedup {speedup:.2f}x >= {args.min_speedup}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
