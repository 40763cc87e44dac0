"""The static rules both simulation engines share, pinned with
hard-coded expectations.

The interpreter and the compiled engine take expression and lvalue
widths (``eval.size_of``, ``elaborate.lvalue_width``), the ``$display``
format grammar (``sim.format_pieces``/``render_value``), case-arm
selection and ``$clog2`` (``values.clog2``) from one place each.  A bug
there gives the same wrong answer on both engines, so the differential
tests cannot see it; these tests check expected text instead:

* a ``$signed``/``$unsigned``/``$clog2`` call without exactly one
  argument is an elaboration error at the call's line, on both engines,
  with and without analysis;
* an identifier in a function body that names nothing declared is an
  elaboration error at its line, whether the function is called or
  not, on both engines, with and without analysis;
* one table of format strings and their expected output, run on both
  engines through ``$display``, ``$write``, ``$error`` and ``$monitor``;
* a decimal conversion prints a value past Python's ``str(int)`` digit
  limit in full, and is a ``sim``-stage error past ``MAX_WIDTH`` bits;
* a sized position that reads a reg still makes its process fall back
  to the interpreter in the compiled engine, with the interpreter's
  output.
"""

from __future__ import annotations

import pytest

from repro.eval.pipeline import Evaluator
from repro.problems import get_problem
from repro.verilog import run_simulation
from repro.verilog.compile import compile_design
from repro.verilog.values import MAX_WIDTH, Vec, clog2

ENGINES = pytest.mark.parametrize(
    "compile_sim", [False, True], ids=["interpreter", "compiled"]
)


def simulate(source: str, compile_sim: bool):
    report, sim = run_simulation(source, top="tb", compile_sim=compile_sim)
    assert report.ok, report.errors
    return report, sim


# ----------------------------------------------------------------------
# One-argument system functions
# ----------------------------------------------------------------------
#: problem 1 (``simple_wire``) bodies -> (line of the bad call, message)
BAD_CALLS = {
    "assign": ("  assign out = $signed();\nendmodule",
               3, "$signed takes one argument, got 0"),
    "range": ("  wire [$clog2():0] w;\n  assign out = in;\nendmodule",
              3, "$clog2 takes one argument, got 0"),
    "localparam": ("  localparam P = $signed();\n  assign out = in;\n"
                   "endmodule", 3, "$signed takes one argument, got 0"),
    "two-args": ("  assign out = $unsigned(in, in);\nendmodule",
                 3, "$unsigned takes one argument, got 2"),
    # a branch that never runs: the check is static
    "dead-branch": ("  reg r;\n  always @(*) begin\n    r = in;\n"
                    "    if (0) r = $clog2();\n  end\n  assign out = r;\n"
                    "endmodule", 6, "$clog2 takes one argument, got 0"),
    # a function that is never called
    "function": ("  function f;\n    input a;\n    f = $unsigned();\n"
                 "  endfunction\n  assign out = in;\nendmodule",
                 5, "$unsigned takes one argument, got 0"),
}


class TestOneArgumentCalls:
    @pytest.mark.parametrize("analysis", [False, True],
                             ids=["plain", "analysis"])
    @ENGINES
    @pytest.mark.parametrize("case", list(BAD_CALLS))
    def test_elaboration_error_at_call_line(self, case, compile_sim,
                                            analysis):
        body, line, message = BAD_CALLS[case]
        evaluation = Evaluator(
            compile_sim=compile_sim, analysis=analysis
        ).evaluate(get_problem(1), body)
        assert not evaluation.compiled
        assert evaluation.stage == "elaborate"
        assert evaluation.error_line == line
        assert evaluation.compile_errors == (f"line {line}:0: {message}",)

    def test_compile_design_reports_call_line(self):
        report = compile_design(
            "module m(input a, output y);\n"
            "  assign y =\n"
            "    $signed();\n"
            "endmodule\n"
        )
        assert not report.ok
        assert report.stage == "elaborate"
        assert report.line == 3

    @ENGINES
    def test_one_argument_calls_still_run(self, compile_sim):
        source = (
            "module tb;\n"
            "  localparam W = $clog2(9);\n"
            "  reg [3:0] a;\n"
            "  initial begin\n"
            "    a = 4'b1110;\n"
            "    $display(\"%0d %0d %0d %0d\", W, $signed(a),\n"
            "             $unsigned($signed(a)), $clog2(a));\n"
            "  end\n"
            "endmodule\n"
        )
        _, sim = simulate(source, compile_sim)
        assert sim.output == ["4 -2 14 4"]

    def test_clog2_values(self):
        expected = {0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 255: 8, 256: 8,
                    257: 9, 2 ** 40: 40, 2 ** 40 + 1: 41}
        for operand, bits in expected.items():
            result = clog2(Vec.from_int(operand, 64))
            assert (result.width, result.signed, result.to_int()) == (
                32, True, bits), operand
        unknown = clog2(Vec.from_bits("1x0", False))
        assert unknown.width == 32 and unknown.to_int() is None


# ----------------------------------------------------------------------
# Names in function bodies
# ----------------------------------------------------------------------
#: problem 1 bodies whose function names an undeclared ``ghost`` -> the
#: line that names it
FUNCTION_GHOSTS = {
    "called": ("  function f;\n    input a;\n    f = ghost;\n"
               "  endfunction\n  assign out = f(in);\nendmodule", 5),
    # a function that is never called
    "uncalled": ("  function f;\n    input a;\n    f = ghost;\n"
                 "  endfunction\n  assign out = in;\nendmodule", 5),
    "written": ("  function f;\n    input a;\n    begin\n      f = a;\n"
                "      ghost = a;\n    end\n  endfunction\n"
                "  assign out = f(in);\nendmodule", 7),
    "continued-line": ("  function f;\n    input a;\n    f = a &\n"
                       "      ghost;\n  endfunction\n"
                       "  assign out = f(in);\nendmodule", 6),
}

#: a problem-1 body whose function names its own name, an input, a
#: local, a localparam, another function and module signals, one of
#: them declared after the function
FUNCTION_NAMES = (
    "  localparam K = 1;\n"
    "  function g;\n    input b;\n    g = b;\n  endfunction\n"
    "  function f;\n    input a;\n    reg t;\n    begin\n"
    "      t = a & K;\n      f = g(t) & (in | late);\n    end\n"
    "  endfunction\n"
    "  reg late;\n"
    "  assign out = f(in);\n"
    "endmodule"
)


class TestFunctionNames:
    @pytest.mark.parametrize("analysis", [False, True],
                             ids=["plain", "analysis"])
    @ENGINES
    @pytest.mark.parametrize("case", list(FUNCTION_GHOSTS))
    def test_undeclared_name_is_an_elaboration_error(self, case,
                                                     compile_sim, analysis):
        body, line = FUNCTION_GHOSTS[case]
        evaluation = Evaluator(
            compile_sim=compile_sim, analysis=analysis
        ).evaluate(get_problem(1), body)
        assert (evaluation.compiled, evaluation.stage,
                evaluation.error_line, evaluation.compile_errors) == (
            False, "elaborate", line,
            (f"line {line}:0: undeclared identifier 'ghost'",))

    @pytest.mark.parametrize("analysis", [False, True],
                             ids=["plain", "analysis"])
    @ENGINES
    def test_declared_names_resolve(self, compile_sim, analysis):
        evaluation = Evaluator(
            compile_sim=compile_sim, analysis=analysis
        ).evaluate(get_problem(1), FUNCTION_NAMES)
        assert evaluation.passed, evaluation


# ----------------------------------------------------------------------
# The format grammar
# ----------------------------------------------------------------------
#: (arguments as written in the source, expected text); ``xv`` holds
#: 8'b1010xxzz
FORMATS = [
    # escapes, an unknown one (\q), and %%
    (r'"tab\there\nnew \\ \"q\" \q"', 'tab\there\nnew \\ "q" q'),
    ('"100%% done"', "100% done"),
    ('"in %m"', "in tb"),
    # a bare %d is right-aligned to its width's largest decimal value
    # (IEEE 1364-2005 17.1.1.3), the sign counted when signed; a written
    # field width leaves it unpadded; %t is unsigned, 0 for x; %T is an
    # unpadded %d
    ("\"[%d] [%0d] [%5d] [%03d] [%10b]\", 8'd7, 8'd7, 8'd7, 8'd7, 2'b10",
     "[  7] [7] [7] [7] [10]"),
    ("\"[%d] [%d] [%d] [%0d]\", 4'sd7, 8'sd200, 32'd5, 32'sd5",
     "[ 7] [ -56] [         5] [5]"),
    ("\"%t|%t|%T\", 32'd10, xv, 8'shff", "10|0|-1"),
    # x/z values (IEEE 1364-2005 17.1.1.4): a digit, or a whole %d, is
    # x or z when all its bits are, else X when some bit is x, else Z
    ('"%b %h %x %o %c %s %d"'
     + ", xv" * 7, "1010xxzz aX aX 2XX ? ?   X"),
    ('"%B %H %X %O %D"' + ", xv" * 5, "1010xxzz aX aX 2XX   X"),
    ("\"%h %o %d %h\", 4'bzzzz, 4'bzzzz, 4'bzzzz, 8'b0zzz_1z00",
     "z zz  z ZZ"),
    ("\"%h %o %d %0d\", 8'bx, 8'bx, 8'bx, 8'bx", "xx xxx   x x"),
    ("\"%c%c %s %o %h %d\", 8'h48, 8'h69, \"ok\", 8'd8, 12'hab, 4'sb1110",
     "Hi ok 10 ab -2"),
    # more conversions than arguments, more arguments than conversions
    ("\"%d %5d|%b\", 8'd1", "  1 %d|%b"),
    ("\"%d\", 8'd1, 8'd2", "  1"),
    # a trailing %, and field digits at the very end (a %d)
    ('"50%"', "50"),
    ("\"n=%4\", 8'd3", "n=3"),
    # a non-string first argument: every argument as %d, space-separated
    ("4'd3, 8'shff, xv", " 3   -1   X"),
    ("", ""),
]


def format_bench(task: str) -> str:
    # one call per time step: a ``$monitor`` replaces the one before it,
    # and each prints once, at the end of the step it starts in
    calls = "".join(f"    {task}({args}); #1;\n" for args, _ in FORMATS)
    return (
        "module tb;\n"
        "  reg [7:0] xv;\n"
        "  dut dut();\n"
        "  initial begin\n"
        "    xv = 8'b1010xxzz;\n"
        "    #10;\n"
        f"{calls}"
        "    #40 $finish;\n"
        "  end\n"
        "endmodule\n"
        "module dut;\n"
        f"  initial #40 {task}(\"in %m\");\n"
        "endmodule\n"
    )


class TestFormatGrammar:
    @ENGINES
    @pytest.mark.parametrize("task", ["$display", "$write", "$error",
                                      "$monitor"])
    def test_format_table(self, task, compile_sim):
        report, sim = simulate(format_bench(task), compile_sim)
        if compile_sim:
            assert report.sim_engine["fallbacks"] == []
        assert sim.output == [text for _, text in FORMATS] + ["in dut"]

    @ENGINES
    def test_monitor_pads_an_unsized_decimal(self, compile_sim):
        source = (
            "module tb;\n"
            "  reg [3:0] m;\n"
            "  initial begin $monitor(\"v %d\", m); #1 m = 1; end\n"
            "endmodule\n"
        )
        _, sim = simulate(source, compile_sim)
        assert sim.output == ["v  x", "v  1"]

    @ENGINES
    def test_arguments_evaluate_lazily_in_order(self, compile_sim):
        """``$random`` draws only for the arguments a conversion takes,
        left to right (the first four draws of the default seed are
        1789648770, -169273095, 160001540, 950215059)."""
        source = (
            "module tb;\n"
            "  initial begin\n"
            "    $display(\"%0d\", $random, $random);\n"
            "    $display(\"%0d %0d %%d\", $random, $random, $random);\n"
            "  end\n"
            "endmodule\n"
        )
        _, sim = simulate(source, compile_sim)
        assert sim.output == ["1789648770", "-169273095 160001540 %d"]


    @ENGINES
    def test_a_decimal_past_the_str_int_digit_limit_prints_in_full(
            self, compile_sim):
        """6,001-digit values, past the 4,300 digits Python's ``str``
        converts by default, in every decimal conversion."""
        source = (
            "module tb;\n"
            "  reg [20000:0] r;\n"
            "  reg signed [20000:0] s;\n"
            "  initial begin\n"
            "    r = 10 ** 6000;\n"
            "    s = -r;\n"
            "    $display(\"%0d\", r);\n"
            "    $display(\"%0d\", s);\n"
            "    $display(\"%0t\", r - 1);\n"
            "    $display(\"%d\", r - 1);\n"
            "  end\n"
            "endmodule\n"
        )
        _, sim = simulate(source, compile_sim)
        assert sim.output == [
            "1" + "0" * 6000, "-1" + "0" * 6000, "9" * 6000,
            ("9" * 6000).rjust(6021),
        ]

    @ENGINES
    @pytest.mark.parametrize("conv", ["%d", "%0t", "%u"])
    def test_a_decimal_wider_than_max_width_is_a_sim_error(
            self, conv, compile_sim):
        source = (
            "module tb;\n"
            f"  reg [{MAX_WIDTH}:0] r;\n"
            f"  initial begin r = 1; $display(\"{conv}\", r); end\n"
            "endmodule\n"
        )
        report, sim = run_simulation(source, top="tb",
                                     compile_sim=compile_sim)
        assert sim is None and report.stage == "sim"
        assert report.errors == [
            f"runtime: %{conv[-1]} of a {MAX_WIDTH + 1}-bit value: decimal "
            f"output is limited to {MAX_WIDTH} bits"]


# ----------------------------------------------------------------------
# The static/runtime boundary of the compiled engine
# ----------------------------------------------------------------------
def boundary_bench(statement: str, shown: str) -> str:
    """A bench whose line-8 process sizes something from reg ``i``."""
    return (
        "module tb;\n"
        "  reg [7:0] a;\n"
        "  reg [3:0] r;\n"
        "  reg s;\n"
        "  integer i;\n"
        "  initial begin a = 8'b10110110; r = 4'd0; s = 0; i = 2; end\n"
        "  initial $display(\"start\");\n"
        f"  initial begin #1 {statement}; $display({shown}); end\n"
        "endmodule\n"
    )


#: a statement with a size that reads ``i`` -> (shown args, expected)
DYNAMIC_SIZES = {
    "r = a[i+1:i]": ('"%b", r', "0001"),
    "r = {i{1'b1}}": ('"%b", r', "0011"),
    "r = a[0 +: i]": ('"%b", r', "0010"),
    "{r[i+1:i], s} = 3'b101": ('"%b %b", r, s', "1000 1"),
}


class TestStaticRuntimeBoundary:
    @pytest.mark.parametrize("statement", list(DYNAMIC_SIZES))
    def test_dynamic_size_falls_back_per_process(self, statement):
        shown, expected = DYNAMIC_SIZES[statement]
        source = boundary_bench(statement, shown)
        _, interpreted = simulate(source, compile_sim=False)
        report, compiled = simulate(source, compile_sim=True)
        plan = report.sim_engine
        assert plan["fallbacks"] == [{
            "kind": "initial", "line": 8,
            "reason": "non-constant expression in sized position",
        }]
        assert plan["compiled"] == plan["processes"] - 1
        assert compiled.output == interpreted.output == ["start", expected]

    def test_dynamic_size_in_continuous_assign(self):
        source = (
            "module tb;\n"
            "  reg [7:0] a = 8'b10110110;\n"
            "  reg [2:0] i = 2;\n"
            "  wire [3:0] w;\n"
            "  assign w = a[i+1:i] + 4'd0;\n"
            "  initial #1 $display(\"%b\", w);\n"
            "endmodule\n"
        )
        _, interpreted = simulate(source, compile_sim=False)
        report, compiled = simulate(source, compile_sim=True)
        assert [(f["kind"], f["line"]) for f in
                report.sim_engine["fallbacks"]] == [("assign", 5)]
        assert compiled.output == interpreted.output == ["0001"]
