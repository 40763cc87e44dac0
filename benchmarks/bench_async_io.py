"""Async executor benchmark: coroutine fan-out vs thread pool on a
latency-bound backend.

The thread and process executors exist for CPU-bound sweeps; real
deployments talk to *remote* model endpoints, where each job spends its
time waiting on the network.  This script injects a fixed per-request
latency into a deterministic stub backend — the sync flavour sleeps on a
thread, the async flavour awaits ``asyncio.sleep`` — and measures three
ways of hiding that latency on the same plan:

* ``thread``      — SweepExecutor with a pool of --workers threads;
* ``async``       — AsyncSweepExecutor at the same in-flight bound
  (apples-to-apples: both overlap --workers requests, so the async
  run must match the thread run to within scheduling noise);
* ``async-wide``  — AsyncSweepExecutor with every job in flight at
  once, the concurrency a thread-per-request design cannot afford:
  this is where an async-native backend pays off.

All three must agree record-for-record with a serial run (the parity
invariant every executor honours).  Run it standalone::

    PYTHONPATH=src python benchmarks/bench_async_io.py
    PYTHONPATH=src python benchmarks/bench_async_io.py \
        --latency 0.05 --workers 4 --min-speedup 2.0

``--min-speedup X`` exits non-zero unless async-wide beats the thread
pool by that factor; ``--tolerance`` bounds how much slower than the
thread pool the same-width async run may be (default 1.5x, generous for
noisy CI machines).
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import time

from repro.backends import StubBackend
from repro.eval import Evaluator, SweepConfig, SweepExecutor, SweepPlanner
from repro.problems import PromptLevel
from repro.service.aio import AsyncBackend, AsyncSweepExecutor


class LatencyStub(StubBackend):
    """Sync stub that blocks the calling thread per request."""

    def __init__(self, latency: float, **kwargs):
        super().__init__(**kwargs)
        self.latency = latency

    def generate(self, model, prompt, config):
        time.sleep(self.latency)
        return super().generate(model, prompt, config)


class AsyncLatencyStub(AsyncBackend):
    """Async stub that awaits the same latency without holding a thread."""

    name = "stub"

    def __init__(self, latency: float, **kwargs):
        self.stub = StubBackend(**kwargs)
        self.latency = latency

    def models(self):
        return self.stub.models()

    def capabilities(self, model):
        return self.stub.capabilities(model)

    async def generate_async(self, model, prompt, config):
        await asyncio.sleep(self.latency)
        return self.stub.generate(model, prompt, config)


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
    return reference, SweepPlanner(reference).plan(config)


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
                        help="thread-pool width == same-width async bound")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per executor; best time wins")
    parser.add_argument("--tolerance", type=float, default=1.5,
                        help="same-width async may be at most this factor "
                             "slower than the thread pool")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless async-wide/thread >= this factor")
    args = parser.parse_args(argv)

    reference, plan = build_plan(args)
    wide = max(len(plan.jobs), 1)
    print(
        f"{len(plan.jobs)} jobs ({plan.completions_planned} completions), "
        f"{args.latency * 1000:.0f}ms injected latency, "
        f"{args.workers} workers / {wide} wide"
    )

    model_names = tuple(args.models.split(","))
    executors = (
        ("serial", lambda: SweepExecutor(
            LatencyStub(args.latency, model_names=model_names),
            evaluator=Evaluator())),
        ("thread", lambda: SweepExecutor(
            LatencyStub(args.latency, model_names=model_names),
            evaluator=Evaluator(), workers=args.workers)),
        ("async", lambda: AsyncSweepExecutor(
            AsyncLatencyStub(args.latency, model_names=model_names),
            evaluator=Evaluator(), concurrency=args.workers)),
        ("async-wide", lambda: AsyncSweepExecutor(
            AsyncLatencyStub(args.latency, model_names=model_names),
            evaluator=Evaluator(), concurrency=wide)),
    )
    times = {}
    records = {}
    for label, factory in executors:
        times[label], result = bench(factory, plan, args.repeat)
        records[label] = result.sweep.records
        print(f"  {label:>10}: {times[label]:7.2f}s "
              f"({len(result.sweep)} records)")

    if len({tuple(r) for r in records.values()}) != 1:
        print("PARITY FAILURE: executors disagree on records")
        return 1
    print("record parity: OK (all four executors byte-identical)")

    same_width = times["async"] / times["thread"]
    wide_speedup = times["thread"] / times["async-wide"]
    print(f"async      vs thread: {same_width:5.2f}x the wall-clock "
          f"(same in-flight bound; ~1.0x expected)")
    print(f"async-wide vs thread: {wide_speedup:5.2f}x faster "
          f"({wide} in flight vs {args.workers} threads)")

    if same_width > args.tolerance:
        print(f"FAIL: same-width async took {same_width:.2f}x the thread "
              f"pool (tolerance {args.tolerance}x)")
        return 1
    if args.min_speedup is not None and wide_speedup < args.min_speedup:
        print(f"FAIL: async-wide speedup {wide_speedup:.2f}x < "
              f"required {args.min_speedup}x")
        return 1
    if args.min_speedup is not None:
        print(f"OK: async-wide speedup {wide_speedup:.2f}x >= "
              f"{args.min_speedup}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
