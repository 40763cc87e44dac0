"""The netlist→closure compiler vs the tree-walking interpreter.

The compiled engine's contract is *observational equivalence*: for any
design, running with ``compile_sim=True`` must produce byte-identical
``$display`` output, identical finish state/time, identical error
stages/lines/messages, and identical verdicts.  These tests enforce the
contract differentially over the reference designs, their curated wrong
variants, and seeded mutation perturbations, then pin down the engine's
own mechanics (per-process fallback, plan summary, profiler
attribution).
"""

from __future__ import annotations

import random

import pytest

from repro.eval.pipeline import Evaluator
from repro.models import mutations
from repro.obs.profile import SimProfiler, profile_frame
from repro.problems import ALL_PROBLEMS, PromptLevel
from repro.verilog import CompiledEngine, run_simulation
from repro.verilog.compile import compile_design


def run_both(source: str, top: str | None = None, max_time: int = 1_000_000,
             max_steps: int = 2_000_000):
    """(interpreted, compiled) observable outcomes for one source."""

    def observe(compile_sim: bool):
        report, sim = run_simulation(
            source, top=top, max_time=max_time, max_steps=max_steps,
            compile_sim=compile_sim,
        )
        return report, sim, (
            report.ok, report.stage, report.line, tuple(report.errors),
            None if sim is None
            else (sim.finished, sim.time, tuple(sim.output)),
        )

    return observe(False), observe(True)


def assert_parity(source: str, top: str | None = None, **kwargs):
    (_, _, interpreted), (report, _, compiled) = run_both(
        source, top=top, **kwargs
    )
    assert interpreted == compiled
    return report


# ----------------------------------------------------------------------
# Differential property test (the tentpole's acceptance contract)
# ----------------------------------------------------------------------
class TestReferenceParity:
    @pytest.mark.parametrize(
        "problem", ALL_PROBLEMS, ids=[f"p{p.number:02d}" for p in ALL_PROBLEMS]
    )
    def test_canonical_bench_parity(self, problem):
        source = problem.bench_source(problem.canonical_body, PromptLevel.LOW)
        report = assert_parity(source, top="tb")
        # every reference design compiles fully: no interpreter fallback
        plan = report.sim_engine
        assert plan is not None
        assert plan["fallbacks"] == []
        assert plan["compiled"] == plan["processes"] > 0

    @pytest.mark.parametrize(
        "problem", ALL_PROBLEMS, ids=[f"p{p.number:02d}" for p in ALL_PROBLEMS]
    )
    def test_wrong_variant_parity(self, problem):
        for variant in problem.wrong_variants:
            assert_parity(
                problem.bench_source(variant.body, PromptLevel.LOW), top="tb"
            )

    def test_mutation_parity(self):
        """Seeded perturbations: broken syntax, x-states, runtime crashes.

        Mutated completions exercise the paths a clean reference never
        reaches — parse/elaborate rejections, x/z propagation through
        x/z values, simulations that die mid-bench.
        """
        rng = random.Random(0xC0DE6E)
        for problem in ALL_PROBLEMS:
            bodies = [problem.canonical_body]
            bodies.append(mutations.broken_completion(bodies[0], rng))
            bodies.append(mutations.cosmetic_variant(bodies[0], rng))
            for body in bodies:
                assert_parity(
                    problem.bench_source(body, PromptLevel.LOW), top="tb"
                )

    def test_evaluator_verdict_parity(self):
        """Full-pipeline differential: CompletionEvaluation equality.

        The frozen dataclass compares stage, error_line, compile_errors
        and findings too, so stage/line failure fields are covered, not
        just the pass booleans.
        """
        interpreted = Evaluator(compile_sim=False)
        compiled = Evaluator(compile_sim=True)
        for problem in ALL_PROBLEMS[:6]:
            bodies = [problem.canonical_body] + [
                variant.body for variant in problem.wrong_variants[:2]
            ]
            for body in bodies:
                assert compiled.evaluate(problem, body) == \
                    interpreted.evaluate(problem, body)


class TestRuntimeErrorParity:
    def test_always_without_timing_control(self):
        source = (
            "module tb;\n"
            "  reg a;\n"
            "  always a = ~a;\n"
            "endmodule\n"
        )
        assert_parity(source, top="tb")

    def test_runaway_zero_time_loop(self):
        source = (
            "module tb;\n"
            "  integer i;\n"
            "  initial begin\n"
            "    i = 0;\n"
            "    while (1) i = i + 1;\n"
            "  end\n"
            "endmodule\n"
        )
        (_, _, interpreted), (_, _, compiled) = run_both(source, top="tb")
        assert interpreted == compiled
        assert "runaway zero-time loop" in compiled[3][0]

    def test_step_overflow_message(self):
        source = (
            "module tb;\n"
            "  reg clk;\n"
            "  initial clk = 0;\n"
            "  always #1 clk = ~clk;\n"
            "endmodule\n"
        )
        (_, _, interpreted), (_, _, compiled) = run_both(
            source, top="tb", max_time=50, max_steps=20
        )
        assert interpreted == compiled
        assert "exceeded" in compiled[3][0]


# ----------------------------------------------------------------------
# Engine mechanics
# ----------------------------------------------------------------------
def _engine_for(source: str, top: str = "tb") -> CompiledEngine:
    report = compile_design(source, top=top)
    assert report.ok, report.errors
    return CompiledEngine(report.design)


class TestEngine:
    def test_unsupported_statement_falls_back_per_process(self):
        source = (
            "module tb;\n"
            "  reg a;\n"
            "  initial begin : blk\n"
            "    a = 0;\n"
            "    disable blk;\n"
            "    a = 1;\n"
            "  end\n"
            "  initial #1 $finish;\n"
            "endmodule\n"
        )
        report = assert_parity(source, top="tb")
        plan = report.sim_engine
        if plan is not None:  # engine built: the disable process fell back
            assert plan["compiled"] < plan["processes"]
            assert any("Disable" in f["reason"] for f in plan["fallbacks"])

    def test_x_heavy_design_parity(self):
        source = (
            "module tb;\n"
            "  reg [3:0] q, r;\n"
            "  initial begin\n"
            "    q = 4'bx01z;\n"
            "    r = q + 4'd3;\n"
            "    $display(\"q=%b r=%b sum=%d\", q, r, q ^ r);\n"
            "    $finish;\n"
            "  end\n"
            "endmodule\n"
        )
        report = assert_parity(source, top="tb")
        assert report.sim_engine["fallbacks"] == []

    def test_plan_shape(self):
        engine = _engine_for(
            "module tb;\n  reg a;\n  initial a = 0;\nendmodule\n"
        )
        plan = engine.plan()
        assert plan["version"] == 1
        assert set(plan) == {
            "version", "processes", "compiled", "fallbacks"
        }

    def test_memory_and_wait_constructs_parity(self):
        source = (
            "module tb;\n"
            "  reg [7:0] mem [0:3];\n"
            "  reg [7:0] sum;\n"
            "  reg go;\n"
            "  integer i;\n"
            "  always @(*) sum = mem[0] + mem[1] + mem[2] + mem[3];\n"
            "  initial begin\n"
            "    go = 0;\n"
            "    for (i = 0; i < 4; i = i + 1) mem[i] = i * 7;\n"
            "    #2 go = 1;\n"
            "  end\n"
            "  initial begin\n"
            "    wait (go) $display(\"sum=%d\", sum);\n"
            "    $finish;\n"
            "  end\n"
            "endmodule\n"
        )
        assert_parity(source, top="tb")


# ----------------------------------------------------------------------
# Profiler interplay
# ----------------------------------------------------------------------
class TestProfilerInterplay:
    def test_compiled_run_attributes_constructs(self):
        """--profile --compile-sim still attributes wall time (never a
        silent 0%-coverage profile)."""
        problem = ALL_PROBLEMS[14]
        source = problem.bench_source(problem.canonical_body, PromptLevel.LOW)
        profiler = SimProfiler()
        report, sim = run_simulation(
            source, top="tb", profiler=profiler, compile_sim=True
        )
        assert report.sim_engine is not None and sim is not None
        assert profiler.constructs
        assert profiler.attributed_seconds > 0.0
        assert any(row[3] > 0 for row in profiler.constructs.values())

    def test_frame_engine_tag(self):
        profiler = SimProfiler()
        profiler.add(("", "always", 3), 0.5, 0, 2)
        frame = profile_frame(profiler, problem=1, engine="compiled")
        assert frame["engine"] == "compiled"
        assert frame["evals_attributed"] is False
        frame = profile_frame(profiler, problem=1, engine="interpreter")
        assert frame["evals_attributed"] is True
        assert "engine" not in profile_frame(profiler, problem=1)


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCli:
    def test_simulate_engine_line_and_opt_out(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "tb.v"
        path.write_text(
            "module tb;\n"
            "  initial begin $display(\"hi\"); $finish; end\n"
            "endmodule\n"
        )
        assert main(["simulate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "hi" in out and "engine=compiled" in out
        assert main(["simulate", str(path), "--no-compile-sim"]) == 0
        out = capsys.readouterr().out
        assert "hi" in out and "engine=compiled" not in out

    def test_sweep_accepts_compile_sim_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["sweep", "--no-compile-sim"])
        assert args.compile_sim is False
        args = build_parser().parse_args(["sweep", "--compile-sim"])
        assert args.compile_sim is True
