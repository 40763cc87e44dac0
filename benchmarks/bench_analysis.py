"""Static-analysis benchmark: gate latency, overhead, and parity.

Three promises from the netlist-analysis PR, priced and gated::

    PYTHONPATH=src python benchmarks/bench_analysis.py
    PYTHONPATH=src python benchmarks/bench_analysis.py \
        --repeats 5 --max-overhead 5.0 --max-loop-ms 100

1. **Loop gate latency** — a completion with a combinational loop is
   rejected at ``stage="analysis"`` in under ``--max-loop-ms``
   milliseconds (default 100), never reaching the simulator's
   iteration limit, with a ``comb-loop`` finding on the evaluation.
2. **Overhead** — paired analyzed/unanalyzed sweeps over the stub
   workload (``--backend``, default the all-pass canonical stub); the
   analyzer may cost at most ``--max-overhead`` percent of total
   evaluation time (min per-pair ratio, same estimator as
   ``bench_obs_overhead.py``).
3. **Parity** — a 2-way *sharded analyzed* sweep merges to record-exact
   equality with a *serial unanalyzed* sweep: the gate only rejects
   designs simulation would fail anyway, so verdict booleans (the only
   compared fields) never move.

Numbers land in ``BENCH_analysis.json`` next to this script.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.api import Session
from repro.eval import Evaluator, SweepConfig
from repro.problems import ALL_PROBLEMS, PromptLevel
from repro.service.sharding import ShardPlanner, merge_shard_results

LEVELS = {"L": PromptLevel.LOW, "M": PromptLevel.MEDIUM,
          "H": PromptLevel.HIGH}

#: a completion for problem 1 (``module simple_wire(input in, output
#: out)``) whose output feeds back through a wire with no register in
#: the cycle — the planted comb loop
LOOP_COMPLETION = """
  wire loop;
  assign loop = out | in;
  assign out = loop & in;
endmodule
"""


def build_config(args) -> SweepConfig:
    return SweepConfig(
        temperatures=tuple(float(t) for t in args.temperatures.split(",")),
        completions_per_prompt=(args.n,),
        levels=tuple(LEVELS[part] for part in args.levels.split(",")),
        problem_numbers=tuple(range(1, args.problems + 1)),
    )


def gate_latency(max_loop_ms: float) -> "tuple[bool, float]":
    """The comb-loop rejection path, timed cold (no evaluator cache)."""
    problem = ALL_PROBLEMS[0]
    evaluator = Evaluator()
    started = time.perf_counter()
    verdict = evaluator.evaluate(problem, LOOP_COMPLETION)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    ok = True
    if verdict.stage != "analysis" or verdict.passed:
        print(f"FAIL: expected stage='analysis', got {verdict.stage!r} "
              f"(passed={verdict.passed})")
        ok = False
    if not any(f.code == "comb-loop" for f in verdict.findings):
        print("FAIL: no comb-loop finding on the planted loop")
        ok = False
    if elapsed_ms > max_loop_ms:
        print(f"FAIL: analysis gate took {elapsed_ms:.1f} ms > "
              f"{max_loop_ms:.0f} ms budget")
        ok = False
    if ok:
        print(f"loop gate: OK ({elapsed_ms:.1f} ms, stage=analysis, "
              f"code=comb-loop)")
    return ok, elapsed_ms


def run_once(config, backend: str, analysis: bool):
    """One full sweep on a fresh session (no cache carryover)."""
    session = Session(backend=backend, analysis=analysis)
    started = time.perf_counter()
    result = session.run_plan(session.plan(config))
    return time.perf_counter() - started, result


def measure_overhead(repeats: int, config, backend: str):
    """Paired unanalyzed/analyzed runs; min per-pair ratio wins (the
    least noise-contaminated pair — see bench_obs_overhead.py)."""
    bare_best = analyzed_best = None
    bare_result = analyzed_result = None
    ratios = []
    for _ in range(repeats):
        bare, bare_result = run_once(config, backend, analysis=False)
        analyzed, analyzed_result = run_once(config, backend,
                                             analysis=True)
        bare_best = bare if bare_best is None else min(bare_best, bare)
        analyzed_best = (
            analyzed if analyzed_best is None
            else min(analyzed_best, analyzed)
        )
        ratios.append(analyzed / bare)
    ratios.sort()
    return bare_best, bare_result, analyzed_best, analyzed_result, ratios


def check_parity(config) -> bool:
    """Sharded analyzed sweep == serial unanalyzed sweep, record-exact.

    Always on the model zoo: its workload mixes passes, parse errors,
    bench failures and runaway designs — the mix where an over-eager
    gate would actually move a verdict.
    """
    _, serial = run_once(config, "zoo", analysis=False)
    session = Session(backend="zoo", analysis=True)
    plan = session.plan(config)
    shards = ShardPlanner(2).split(plan)
    results = [session.run_plan(shard.plan) for shard in shards]
    merged = merge_shard_results(shards, results)
    if merged.sweep.records != serial.sweep.records:
        print("PARITY FAILURE: sharded analyzed != serial unanalyzed")
        return False
    print("record parity: OK (analysis gate is verdict-preserving)")
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--problems", type=int, default=8,
                        help="benchmark problems per model (1..N)")
    parser.add_argument("--temperatures", default="0.1,0.5")
    parser.add_argument("--n", type=int, default=4)
    parser.add_argument("--levels", default="M")
    parser.add_argument("--repeats", type=int, default=3,
                        help="paired runs per variant; min ratio wins")
    parser.add_argument("--backend", default="stub-canonical",
                        help="overhead-workload backend (default: "
                             "stub-canonical, the all-pass stub; try "
                             "'zoo' for a failure-heavy mix)")
    parser.add_argument("--max-overhead", type=float, default=5.0,
                        help="fail when the analyzed run is more than "
                             "this percent slower (default: 5.0)")
    parser.add_argument("--max-loop-ms", type=float, default=100.0,
                        help="comb-loop rejection latency budget in ms")
    parser.add_argument("--output", default=None,
                        help="artifact path (default: BENCH_analysis.json "
                             "next to this script)")
    args = parser.parse_args(argv)

    gate_ok, loop_ms = gate_latency(args.max_loop_ms)

    config = build_config(args)
    bare_seconds, bare_result, analyzed_seconds, _, ratios = (
        measure_overhead(args.repeats, config, args.backend)
    )
    parity_ok = check_parity(config)

    overhead_pct = (ratios[0] - 1.0) * 100.0
    mid = len(ratios) // 2
    median_ratio = (
        ratios[mid]
        if len(ratios) % 2
        else (ratios[mid - 1] + ratios[mid]) / 2.0
    )
    jobs = len(bare_result.sweep.records)
    print(f"{jobs} records/run, {args.repeats} paired repeats:")
    print(f"  unanalyzed: {bare_seconds * 1000:8.1f} ms (best)")
    print(f"  analyzed:   {analyzed_seconds * 1000:8.1f} ms (best)")
    print(f"  overhead: {overhead_pct:+.2f}% (best pair; median "
          f"{(median_ratio - 1.0) * 100.0:+.2f}%)")

    output = args.output or os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "BENCH_analysis.json"
    )
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "records": jobs,
                "repeats": args.repeats,
                "backend": args.backend,
                "loop_gate_ms": round(loop_ms, 3),
                "max_loop_ms": args.max_loop_ms,
                "bare_seconds": round(bare_seconds, 6),
                "analyzed_seconds": round(analyzed_seconds, 6),
                "pair_ratios": [round(r, 6) for r in ratios],
                "median_pair_ratio": round(median_ratio, 6),
                "overhead_pct": round(overhead_pct, 3),
                "max_overhead_pct": args.max_overhead,
                "parity": parity_ok,
            },
            handle,
            indent=2,
        )
        handle.write("\n")
    print(f"-- wrote {output}")

    if not gate_ok or not parity_ok:
        return 1
    if overhead_pct > args.max_overhead:
        print(f"FAIL: overhead {overhead_pct:.2f}% > "
              f"{args.max_overhead:.1f}% budget")
        return 1
    print(f"OK: overhead {overhead_pct:.2f}% <= "
          f"{args.max_overhead:.1f}% budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
