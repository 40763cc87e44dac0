"""Compiled-simulation benchmark: speedup + record-parity gates.

The netlist→closure engine (:mod:`repro.verilog.codegen`) makes two
promises this script prices:

* **the engine pays for itself** — on the simulation-heavy tail of the
  problem set, building the engine *plus* running the bench simulation
  on it must be at least ``--min-speedup`` times faster than the
  tree-walking interpreter's simulation loop, gated on the **minimum**
  per-problem ratio (scheduler noise only ever slows a run, so the
  minimum is the honest bound);
* **verdicts don't move** — a full sweep with ``compile_sim=True``
  must produce records byte-identical to the interpreted sweep.

Engine construction is part of every compiled evaluation, so the gate
charges it to the compiled side; parse and elaboration are shared by
both engines and stay out of both.  The sim-loop-only ratio is
reported but not gated, and so is end-to-end sweep wall time: once
simulation is compiled, parsing the ~100-line bench source dominates a
single evaluation (Amdahl).  Every number lands in
``BENCH_sim_speed.json`` next to this script::

    PYTHONPATH=src python benchmarks/bench_sim_speed.py
    PYTHONPATH=src python benchmarks/bench_sim_speed.py \
        --problems 15,16,17 --repeats 5 --min-speedup 1.3
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.api import Session
from repro.eval import SweepConfig
from repro.problems import ALL_PROBLEMS, PromptLevel
from repro.verilog import simulate
from repro.verilog.codegen import CompiledEngine
from repro.verilog.compile import compile_design


def bench_sources(problem_numbers):
    by_number = {problem.number: problem for problem in ALL_PROBLEMS}
    return {
        number: by_number[number].bench_source(
            by_number[number].canonical_body, PromptLevel.LOW
        )
        for number in problem_numbers
    }


def _elaborated(source):
    report = compile_design(source, top="tb")
    assert report.ok, report.errors
    return report.design


def measure_sim_stage(sources, repeats):
    """Per-problem best-of-``repeats`` seconds, both engines.

    Each repeat times the interpreter's simulation loop, then engine
    build and the compiled simulation loop on a fresh elaboration, back
    to back, so slow drift on a shared runner cancels within a repeat;
    taking the best of the repeats discards one-off scheduler stalls.
    """
    rows = {}
    for number, source in sources.items():
        interpreted = compiled = build = total = float("inf")
        for _ in range(repeats):
            design = _elaborated(source)
            started = time.perf_counter()
            sim = simulate(design)
            interpreted = min(interpreted, time.perf_counter() - started)
            baseline = (sim.finished, sim.time, tuple(sim.output))

            design = _elaborated(source)
            started = time.perf_counter()
            engine = CompiledEngine(design)
            built = time.perf_counter()
            sim = simulate(design, engine=engine)
            finished = time.perf_counter()
            assert engine.fallbacks == [], (
                f"p{number:02d} hit interpreter fallbacks: "
                f"{engine.fallbacks}"
            )
            assert (sim.finished, sim.time, tuple(sim.output)) == baseline
            build = min(build, built - started)
            compiled = min(compiled, finished - built)
            total = min(total, finished - started)
        rows[number] = {
            "interpreted_sim_seconds": round(interpreted, 6),
            "compiled_sim_seconds": round(compiled, 6),
            "engine_build_seconds": round(build, 6),
            "build_plus_sim_seconds": round(total, 6),
            "sim_loop_speedup": round(interpreted / compiled, 3),
            "speedup": round(interpreted / total, 3),
        }
    return rows


def measure_sweep(config, compile_sim, repeats):
    """Best-of-``repeats`` end-to-end sweep wall time on fresh sessions."""
    best = None
    result = None
    for _ in range(repeats):
        session = Session(backend="stub-canonical", compile_sim=compile_sim)
        plan = session.plan(config)
        started = time.perf_counter()
        result = session.run_plan(plan)
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--problems", default="15,16,17",
                        help="comma-separated problem numbers (default: "
                             "the simulation-heavy tail of the set)")
    parser.add_argument("--n", type=int, default=4,
                        help="completions per prompt for the parity sweep "
                             "(default: 4)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="paired runs per measurement; best is kept")
    parser.add_argument("--min-speedup", type=float, default=1.3,
                        help="fail when any problem's interpreted sim "
                             "over compiled build+sim ratio is below this "
                             "(default: 1.3)")
    parser.add_argument("--output", default=None,
                        help="artifact path (default: BENCH_sim_speed.json "
                             "next to this script)")
    args = parser.parse_args(argv)

    problem_numbers = tuple(int(part) for part in args.problems.split(","))
    sources = bench_sources(problem_numbers)

    rows = measure_sim_stage(sources, args.repeats)
    worst = min(row["speedup"] for row in rows.values())

    config = SweepConfig(
        temperatures=(0.1,),
        completions_per_prompt=(args.n,),
        levels=(PromptLevel.LOW,),
        problem_numbers=problem_numbers,
    )
    interpreted_wall, interpreted_result = measure_sweep(
        config, compile_sim=False, repeats=max(1, args.repeats // 2)
    )
    compiled_wall, compiled_result = measure_sweep(
        config, compile_sim=True, repeats=max(1, args.repeats // 2)
    )
    parity = (compiled_result.sweep.records
              == interpreted_result.sweep.records)

    print(f"interpreted sim -> compiled engine build + sim (best of "
          f"{args.repeats} paired repeats):")
    for number, row in sorted(rows.items()):
        print(f"  p{number:02d}: {row['interpreted_sim_seconds'] * 1000:7.2f}"
              f" ms -> {row['engine_build_seconds'] * 1000:5.2f} + "
              f"{row['compiled_sim_seconds'] * 1000:5.2f} ms  "
              f"({row['speedup']:.2f}x; sim loop alone "
              f"{row['sim_loop_speedup']:.2f}x)")
    records = len(compiled_result.sweep.records)
    print(f"end-to-end sweep ({records} records): "
          f"{interpreted_wall * 1000:.1f} ms interpreted -> "
          f"{compiled_wall * 1000:.1f} ms compiled "
          f"({interpreted_wall / compiled_wall:.2f}x; parse-dominated, "
          f"not gated)")
    print(f"record parity: {'OK' if parity else 'FAILURE'}")

    output = args.output or os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "BENCH_sim_speed.json"
    )
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "problems": {f"p{n:02d}": row
                             for n, row in sorted(rows.items())},
                "min_pair_speedup": worst,
                "min_speedup_gate": args.min_speedup,
                "repeats": args.repeats,
                "sweep_records": records,
                "sweep_interpreted_seconds": round(interpreted_wall, 6),
                "sweep_compiled_seconds": round(compiled_wall, 6),
                "sweep_speedup": round(interpreted_wall / compiled_wall, 3),
                "record_parity": parity,
            },
            handle,
            indent=2,
        )
        handle.write("\n")
    print(f"-- wrote {output}")

    failed = False
    if not parity:
        print("FAIL: compiled sweep records differ from interpreted sweep")
        failed = True
    if worst < args.min_speedup:
        print(f"FAIL: min build+sim speedup {worst:.2f}x < "
              f"{args.min_speedup:.1f}x gate")
        failed = True
    if failed:
        return 1
    print(f"OK: min build+sim speedup {worst:.2f}x >= "
          f"{args.min_speedup:.1f}x, records identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
