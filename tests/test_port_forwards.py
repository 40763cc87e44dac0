"""Port forwards: same-width identifier port connections in the compiled
engine.

Elaboration marks a port connection whose expression is a plain
identifier naming a non-memory signal of the port's width and
signedness as a forward (``ProcessSpec.forward``).  The compiled engine
runs it as a plain copy re-armed by one pre-built waiter; the
interpreter keeps the continuous assign.  Both must be observably the
same, down to the step count: each copy still costs one delta, one
active-queue slot and one ``max_steps`` step.
"""

from __future__ import annotations

import pytest

from repro.eval.pipeline import Evaluator
from repro.obs.profile import SimProfiler
from repro.problems import ALL_PROBLEMS, PromptLevel
from repro.verilog import (
    CompiledEngine,
    SimulationError,
    Simulator,
    compile_design,
    run_simulation,
)
from repro.verilog import codegen

LEVELS = list(PromptLevel)


def observe(source: str, compile_sim: bool, **kwargs):
    """The outcome fields interpreted == compiled is held to."""
    report, sim = run_simulation(
        source, top="tb", compile_sim=compile_sim, **kwargs
    )
    return (
        report.ok, report.stage, report.line, tuple(report.errors),
        None if sim is None else (sim.finished, sim.time, tuple(sim.output)),
    )


def assert_parity(source: str, **kwargs):
    interpreted = observe(source, False, **kwargs)
    assert observe(source, True, **kwargs) == interpreted
    return interpreted


def run_counted(source: str, compiled: bool, **kwargs):
    """(outcome, steps taken) of one run on a fresh elaboration."""
    report = compile_design(source, top="tb")
    assert report.ok, report.errors
    engine = CompiledEngine(report.design) if compiled else None
    sim = Simulator(report.design, engine=engine, **kwargs)
    try:
        result = sim.run()
    except SimulationError as exc:
        return str(exc), sim._steps
    return (result.finished, result.time, tuple(result.output)), sim._steps


def port_specs(design):
    """The processes elaboration made for port connections."""
    return [
        spec for spec in design.processes
        if spec.kind == "assign" and spec.target_scope is not spec.scope
    ]


def bench(dut: str, tb_body: str) -> str:
    return dut.strip() + "\n" + "module tb;\n" + tb_body.strip() + "\nendmodule\n"


# ----------------------------------------------------------------------
# The 17 problems
# ----------------------------------------------------------------------
class TestProblemParity:
    @pytest.mark.parametrize(
        "problem", ALL_PROBLEMS, ids=[f"p{p.number:02d}" for p in ALL_PROBLEMS]
    )
    def test_every_body_and_level(self, problem):
        bodies = [problem.canonical_body] + [
            variant.body for variant in problem.wrong_variants
        ]
        for level in LEVELS:
            for body in bodies:
                assert_parity(problem.bench_source(body, level))

    @pytest.mark.parametrize(
        "problem", ALL_PROBLEMS, ids=[f"p{p.number:02d}" for p in ALL_PROBLEMS]
    )
    def test_steps_match(self, problem):
        source = problem.bench_source(problem.canonical_body, PromptLevel.LOW)
        assert run_counted(source, True) == run_counted(source, False)


class TestForwardsAreTaken:
    def test_every_bench_port_is_a_forward(self):
        for problem in ALL_PROBLEMS:
            source = problem.bench_source(problem.canonical_body)
            design = compile_design(source, top="tb").design
            specs = port_specs(design)
            assert specs, problem.number
            for spec in specs:
                assert spec.forward is not None, (problem.number, spec.line)
                source_signal, target_signal = spec.forward
                assert source_signal is not target_signal
                assert source_signal.width == target_signal.width

    def test_compiled_engine_lowers_no_forward(self, monkeypatch):
        lowered = []
        original = codegen._ProcessCompiler._compile_assign_process

        def spy(self, spec):
            lowered.append(spec)
            return original(self, spec)

        monkeypatch.setattr(
            codegen._ProcessCompiler, "_compile_assign_process", spy
        )
        evaluator = Evaluator(compile_sim=True)  # grafts onto a template
        for problem in ALL_PROBLEMS:
            source = problem.bench_source(problem.canonical_body)
            report, sim = run_simulation(source, top="tb", compile_sim=True)
            assert sim is not None and sim.output[-1] == "ALL TESTS PASSED"
            plan = report.sim_engine
            assert plan["compiled"] == plan["processes"]
            assert plan["fallbacks"] == []
            assert evaluator.evaluate(problem, problem.canonical_body).passed
        assert lowered  # the problems' own assigns still lower
        assert all(spec.forward is None for spec in lowered)
        assert all(spec.target_scope is spec.scope for spec in lowered)


# ----------------------------------------------------------------------
# Hand-written shapes
# ----------------------------------------------------------------------
LEVEL_DUT = """
module dut(input [3:0] in, output reg [3:0] out);
  always @(in) out = in + 4'd1;
endmodule
"""

INV_DUT = """
module dut(input [3:0] in, output [3:0] out);
  assign out = ~in;
endmodule
"""


class TestShapes:
    def test_time0_write_before_the_dut_arms(self):
        """The bench's time-0 write lands before ``always @(in)`` arms;
        only the port's delta wakes it (problems 3 and 9)."""
        source = bench(LEVEL_DUT, """
  reg [3:0] in; wire [3:0] out;
  initial begin in = 4'd3; #1 $display("out=%d", out); end
  dut d(.in(in), .out(out));
""")
        assert assert_parity(source)[4] == (False, 1, ("out= 4",))
        assert run_counted(source, True) == run_counted(source, False)

    def test_same_step_sampling(self):
        source = bench(INV_DUT, """
  reg [3:0] in; wire [3:0] out;
  dut d(.in(in), .out(out));
  initial begin
    in = 4'd0; #1;
    in = 4'd5;
    $display("now %b", out);
    #0 $display("after #0 %b", out);
    in = 4'd6;
    @(out) $display("after @(out) %b", out);
    $finish;
  end
""")
        assert assert_parity(source)[4] == (True, 1, (
            "now 1111", "after #0 1010", "after @(out) 1001",
        ))

    def test_dut_drives_its_own_input(self):
        source = bench("""
module dut(input [1:0] a, output [1:0] y);
  assign a = 2'b10;
  assign y = a;
endmodule
""", """
  reg [1:0] a; wire [1:0] y;
  dut d(.a(a), .y(y));
  initial begin
    #1 $display("y=%b", y);
    a = 2'b01; #1 $display("y=%b", y);
    a = 2'b11; #0 $display("y=%b", y);
  end
""")
        assert assert_parity(source)[4] == (
            False, 2, ("y=10", "y=01", "y=11")
        )

    def test_output_into_a_bench_reg_the_bench_writes(self):
        source = bench(LEVEL_DUT, """
  reg [3:0] in; reg [3:0] out;
  dut d(.in(in), .out(out));
  initial begin
    in = 4'd1; #1 $display("%d", out);
    out = 4'd9; #1 $display("%d", out);
    in = 4'd7; #1 $display("%d", out);
  end
""")
        assert assert_parity(source)[4] == (False, 3, (" 2", " 9", " 8"))

    def test_inout(self):
        source = bench("""
module dut(inout [3:0] io, output [3:0] y);
  assign y = io ^ 4'b1111;
endmodule
""", """
  reg [3:0] io; wire [3:0] y;
  dut d(.io(io), .y(y));
  initial begin io = 4'b0011; #1 $display("%b", y); end
""")
        design = compile_design(source, top="tb").design
        assert all(spec.forward for spec in port_specs(design))
        assert assert_parity(source)[4] == (False, 1, ("1100",))

    @pytest.mark.parametrize("decl,stimulus,conn,expected", [
        # wider, narrower and sign-mismatched sources
        ("reg [7:0] s;", "s = 8'b1010_0101;", "s", "0101"),
        ("reg [1:0] s;", "s = 2'b01;", "s", "0001"),
        ("reg signed [3:0] s;", "s = -4'sd3;", "s", "1101"),
        ("reg [7:0] s;", "s = 8'b1010_0101;", "s[5:2]", "1001"),
        ("reg [1:0] s, t;", "s = 2'b01; t = 2'b10;", "{s, t}", "0110"),
        ("reg [3:0] s;", "", "4'b1010", "1010"),
    ], ids=["wider", "narrower", "signed", "part-select", "concat",
            "constant"])
    def test_other_input_shapes_are_not_forwards(
        self, decl, stimulus, conn, expected
    ):
        dut = """
module dut(input [3:0] in, output [3:0] out);
  assign out = in;
endmodule
"""
        source = bench(dut, f"""
  {decl} wire [3:0] out;
  dut d(.in({conn}), .out(out));
  initial begin {stimulus} #1 $display("%b", out); end
""")
        design = compile_design(source, top="tb").design
        into_dut, out_of_dut = port_specs(design)
        assert into_dut.forward is None
        assert out_of_dut.forward is not None
        assert assert_parity(source)[4] == (False, 1, (expected,))

    def test_sign_mismatch_output_is_not_a_forward(self):
        source = bench("""
module dut(output signed [3:0] y);
  assign y = -4'sd2;
endmodule
""", """
  wire [3:0] y;
  dut d(.y(y));
  initial #1 $display("%d", y);
""")
        design = compile_design(source, top="tb").design
        assert port_specs(design)[0].forward is None
        assert assert_parity(source)[4] == (False, 1, ("14",))

    def test_memory_connection_is_not_a_forward(self):
        source = bench(INV_DUT, """
  reg [3:0] mem [0:1]; wire [3:0] out;
  dut d(.in(mem), .out(out));
  initial #1 $display("%b", out);
""")
        design = compile_design(source, top="tb").design
        assert port_specs(design)[0].forward is None
        assert assert_parity(source)[1:4] == (
            "sim", 6, ("runtime: line 6:0: memory 'mem' used without an index",)
        )

    def test_zero_delay_loop_through_two_ports(self):
        source = bench("""
module dut(input a, output y);
  assign y = (a === 1'b1) ? 1'b0 : 1'b1;
endmodule
""", """
  wire w;
  dut d(.a(w), .y(w));
  initial #5 $display("unreachable");
""")
        outcome = assert_parity(source, max_steps=1_000)
        assert outcome[2:4] == (0, (
            "runtime: simulation exceeded 1000 steps (zero-delay loop?) "
            "at time 0",
        ))
        assert run_counted(source, True, max_steps=1_000) == \
            run_counted(source, False, max_steps=1_000)

    def test_step_limit_lands_at_the_same_time(self):
        """A clocked bench cut by ``max_steps`` mid-run: the time in the
        message counts every port copy as one step."""
        source = bench("""
module dut(input clk, output reg [7:0] q);
  initial q = 0;
  always @(posedge clk) q <= q + 8'd1;
endmodule
""", """
  reg clk; wire [7:0] q;
  dut d(.clk(clk), .q(q));
  initial clk = 0;
  always #1 clk = ~clk;
  always @(q) if (q == 8'd200) $finish;
""")
        outcome = assert_parity(source, max_steps=997)
        assert "exceeded 997 steps" in outcome[3][0]
        assert run_counted(source, True, max_steps=997) == \
            run_counted(source, False, max_steps=997)

    def test_profiler_construct_keys_unchanged(self):
        source = ALL_PROBLEMS[8].bench_source(ALL_PROBLEMS[8].canonical_body)
        rows = []
        for compile_sim in (False, True):
            profiler = SimProfiler()
            run_simulation(source, top="tb", profiler=profiler,
                           compile_sim=compile_sim)
            rows.append({key: (row[1], row[3])
                         for key, row in profiler.constructs.items()})
        assert rows[0] == rows[1]
        port_keys = {key for key in rows[1] if key[1] == "assign"}
        assert port_keys  # the port copies are billed as assigns
