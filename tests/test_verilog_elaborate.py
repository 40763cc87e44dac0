"""Elaboration and compile-gate tests (repro.verilog.elaborate/compile)."""

import pytest

from repro.eval.pipeline import Evaluator
from repro.problems import PromptLevel, get_problem
from repro.verilog import (
    ElaborationError,
    check_syntax,
    compile_design,
    elaborate,
    parse,
    run_simulation,
)


class TestCompileGate:
    def test_good_module_compiles(self):
        report = compile_design(
            "module m(input a, output b); assign b = a; endmodule"
        )
        assert report.ok
        assert report.design is not None

    def test_syntax_error_reported_with_line(self):
        report = compile_design("module m(input a output b); endmodule")
        assert not report.ok
        assert "line" in report.errors[0]

    def test_check_syntax_does_not_elaborate(self):
        # undeclared identifier is an elaboration error, not a parse error
        source = "module m(output b); assign b = ghost; endmodule"
        assert check_syntax(source).ok
        assert not compile_design(source).ok

    def test_default_top_is_last_module(self):
        source = (
            "module a(input x, output y); assign y = x; endmodule\n"
            "module b; endmodule"
        )
        report = compile_design(source)
        assert report.ok
        assert report.design.top == "b"

    def test_explicit_top(self):
        source = "module a; endmodule\nmodule b; endmodule"
        assert compile_design(source, top="a").design.top == "a"

    def test_missing_top_module(self):
        report = compile_design("module a; endmodule", top="zz")
        assert not report.ok


class TestNameResolution:
    def test_undeclared_rhs_identifier(self):
        report = compile_design(
            "module m(output b); assign b = nothere; endmodule"
        )
        assert not report.ok
        assert "nothere" in report.error_text

    def test_undeclared_lvalue(self):
        report = compile_design(
            "module m(input a); assign ghost = a; endmodule"
        )
        assert not report.ok

    def test_undeclared_in_always(self):
        report = compile_design(
            "module m(input clk); always @(posedge clk) ghost <= 1; endmodule"
        )
        assert not report.ok

    def test_undeclared_in_sensitivity(self):
        report = compile_design(
            "module m(output reg q); always @(ghost) q = 1; endmodule"
        )
        assert not report.ok

    def test_parameter_resolves(self):
        report = compile_design(
            "module m(output [7:0] v); parameter K = 42; assign v = K; endmodule"
        )
        assert report.ok

    def test_duplicate_declaration_rejected(self):
        report = compile_design("module m; wire w; reg w; endmodule")
        assert not report.ok

    def test_port_body_redeclaration_ok(self):
        source = """
        module m(a, q);
          input a;
          output q;
          reg q;
          always @(a) q = a;
        endmodule
        """
        assert compile_design(source).ok

    def test_port_redeclared_different_width_rejected(self):
        source = """
        module m(a);
          input a;
          wire [3:0] a;
        endmodule
        """
        assert not compile_design(source).ok


class TestParameters:
    def test_parameter_sizes_range(self):
        source = """
        module m #(parameter W = 8)(output [W-1:0] v);
          assign v = 0;
        endmodule
        """
        design = compile_design(source).design
        assert design.signal("v").width == 8

    def test_localparam_not_overridable(self):
        source = """
        module child; localparam K = 1; endmodule
        module top; child #(.K(2)) c(); endmodule
        """
        report = compile_design(source, top="top")
        assert not report.ok

    def test_positional_parameter_override(self):
        source = """
        module child #(parameter A = 1, B = 2)(output [7:0] v);
          assign v = A + B;
        endmodule
        module top(output [7:0] v);
          child #(10, 20) c(.v(v));
        endmodule
        """
        design = compile_design(source, top="top").design
        assert design is not None

    def test_parameter_chain(self):
        source = """
        module m(output [7:0] v);
          parameter A = 4;
          parameter B = A * 2;
          assign v = B;
        endmodule
        """
        assert compile_design(source).ok

    def test_too_many_positional_overrides(self):
        source = """
        module child #(parameter A = 1)(); endmodule
        module top; child #(1, 2) c(); endmodule
        """
        assert not compile_design(source, top="top").ok


class TestHierarchyErrors:
    def test_unknown_module(self):
        report = compile_design("module top; ghost g(); endmodule")
        assert not report.ok
        assert "ghost" in report.error_text

    def test_unknown_port_name(self):
        source = """
        module child(input a); endmodule
        module top; child c(.b(1'b0)); endmodule
        """
        assert not compile_design(source, top="top").ok

    def test_too_many_positional_connections(self):
        source = """
        module child(input a); endmodule
        module top; child c(1'b0, 1'b1); endmodule
        """
        assert not compile_design(source, top="top").ok

    _CHILD = "module m(input a, input b, output y); assign y = a & b; endmodule\n"

    def _rejected(self, instance: str):
        source = (
            self._CHILD
            + "module top;\nwire x, z, w, y;\n" + instance + "\nendmodule\n"
        )
        report = compile_design(source, top="top")
        assert not report.ok and report.stage == "elaborate"
        assert report.line == 4  # the instance's line
        return report

    def test_port_connected_twice_by_name(self):
        report = self._rejected("m u(.a(x), .a(z), .y(w));")
        assert "port 'a' of instance 'u' connected more than once" in \
            report.error_text

    def test_positional_then_named_connection(self):
        report = self._rejected("m u(x, .a(w));")
        assert "instance 'u' mixes named and positional" in report.error_text

    def test_named_then_positional_connection(self):
        report = self._rejected("m u(.a(x), w);")
        assert "instance 'u' mixes named and positional" in report.error_text
        assert "None" not in report.error_text

    def test_unconnected_named_port_is_not_a_second_binding(self):
        source = (
            self._CHILD
            + "module top; wire x, y; m u(.a(x), .b(), .y(y)); endmodule\n"
        )
        assert compile_design(source, top="top").ok

    def test_recursive_instantiation_caught(self):
        source = "module a; a child(); endmodule"
        report = compile_design(source, top="a")
        assert not report.ok
        assert "depth" in report.error_text or "recursive" in report.error_text

    def test_duplicate_instance_name(self):
        source = """
        module child; endmodule
        module top; child c(); child c(); endmodule
        """
        assert not compile_design(source, top="top").ok

    def test_module_declared_twice_is_rejected_at_the_second(self):
        source = (
            "module helper(output y); assign y = 1'b1; endmodule\n"
            "module top(output y); helper h(.y(y)); endmodule\n"
            "module helper(output y); assign y = 1'b0; endmodule\n"
        )
        report = compile_design(source, top="top")
        assert not report.ok
        assert report.stage == "elaborate" and report.line == 3
        assert "module 'helper' already declared" in report.error_text

    def test_design_defining_tb_does_not_replace_the_bench(self):
        problem = get_problem(1)
        body = (
            "assign out = ~in;\nendmodule\n"
            'module tb; initial $display("ALL TESTS PASSED"); endmodule'
        )
        source = problem.bench_source(body)
        report, sim = run_simulation(source, top="tb")
        assert sim is None and report.stage == "elaborate"
        assert "module 'tb' already declared" in report.error_text
        # the bench's own ``module tb`` line, the second declaration
        assert report.line == source.split("\n").index("module tb;") + 1


class TestSignals:
    def test_signal_lookup_by_path(self):
        source = """
        module child(output [3:0] q); assign q = 4'd5; endmodule
        module top; wire [3:0] w; child inner(.q(w)); endmodule
        """
        design = compile_design(source, top="top").design
        assert design.signal("w").width == 4
        assert design.signal("inner.q").width == 4
        with pytest.raises(KeyError):
            design.signal("inner.zzz")

    def test_integer_is_32_bit_signed(self):
        design = compile_design("module m; integer i; endmodule").design
        signal = design.signal("i")
        assert signal.width == 32
        assert signal.signed

    def test_memory_bounds(self):
        design = compile_design(
            "module m; reg [7:0] mem [0:63]; endmodule"
        ).design
        signal = design.signal("mem")
        assert signal.memory is not None
        assert (signal.array_lo, signal.array_hi) == (0, 63)

    def test_reg_initializer(self):
        design = compile_design(
            "module m; reg [3:0] r = 4'd7; endmodule"
        ).design
        assert design.signal("r").value.to_unsigned() == 7

    def test_ascending_range_bit_offset(self):
        design = compile_design(
            "module m; reg [0:3] r; endmodule"
        ).design
        signal = design.signal("r")
        assert signal.bit_offset(0) == 3  # declared MSB
        assert signal.bit_offset(3) == 0  # declared LSB

    def test_descending_range_bit_offset(self):
        design = compile_design("module m; reg [7:4] r; endmodule").design
        signal = design.signal("r")
        assert signal.bit_offset(7) == 3
        assert signal.bit_offset(4) == 0
        assert signal.bit_offset(3) is None


class TestConstantErrors:
    def test_x_in_constant_range(self):
        report = compile_design("module m; reg [1'bx:0] r; endmodule")
        assert not report.ok

    def test_parameter_without_value(self):
        report = check_syntax("module m; parameter K; endmodule")
        assert not report.ok


ENGINES = pytest.mark.parametrize(
    "compile_sim", [False, True], ids=["interpreter", "compiled"])


def _display(source: str, compile_sim: bool) -> list[str]:
    report, sim = run_simulation(source, compile_sim=compile_sim)
    assert report.ok, report.errors
    return sim.text.split()


class TestPortRedeclarationValues:
    """A port redeclared in the body (``output q; reg q;``) holds the
    value a plain declaration of the second kind would."""

    @ENGINES
    def test_signed_redeclaration_reads_signed(self, compile_sim):
        # IEEE 1364-2005 12.3.3: a port is signed when either of its
        # declarations is; a part-select write keeps the stored sign
        source = """
        module m(q);
          output [3:0] q;
          reg signed [3:0] q;
          reg signed [7:0] w;
          initial begin
            q[3:0] = 4'b1110;
            w = q;
            $display("%d %d", q, w);
          end
        endmodule
        """
        assert _display(source, compile_sim) == ["-2", "-2"]

    @ENGINES
    def test_signed_port_keeps_sign_under_unsigned_redeclaration(
            self, compile_sim):
        source = """
        module m(q);
          output signed [3:0] q;
          reg [3:0] q;
          reg signed [7:0] w;
          initial begin
            q[3:0] = 4'b1110;
            w = q;
            $display("%d %d", q, w);
          end
        endmodule
        """
        assert _display(source, compile_sim) == ["-2", "-2"]

    @ENGINES
    def test_redeclaration_keeps_its_initializer(self, compile_sim):
        source = """
        module m(q);
          output [3:0] q;
          reg [3:0] q = 4'd5;
          reg [3:0] r = 4'd5;
          initial $display("%d %d", q, r);
        endmodule
        """
        assert _display(source, compile_sim) == ["5", "5"]

    @ENGINES
    def test_signed_redeclaration_initializer_is_signed(self, compile_sim):
        source = """
        module m(q);
          output [3:0] q;
          reg signed [3:0] q = -3;
          initial $display("%d", q);
        endmodule
        """
        assert _display(source, compile_sim) == ["-3"]


class TestIntraAssignmentDelayNames:
    """``q = #d v`` names in ``d`` are checked at elaboration, as those
    of ``#d q = v`` are."""

    SOURCE = """module m(q);
  output [3:0] q;
  reg [3:0] q;
  initial
    {stmt}
endmodule
"""

    def test_undeclared_delay_name_is_an_elaborate_error(self):
        for stmt in ("q = #nope 4'd3;", "#nope q = 4'd3;"):
            report = compile_design(self.SOURCE.format(stmt=stmt))
            assert not report.ok
            assert report.stage == "elaborate"
            assert report.line == 4
            assert report.errors == ["line 4:0: undeclared identifier 'nope'"]

    def test_declared_delay_name_compiles(self):
        source = self.SOURCE.format(stmt="q = #q 4'd3;")
        assert compile_design(source).ok

    @ENGINES
    def test_evaluator_rejects_at_elaborate_on_both_engines(self, compile_sim):
        problem = get_problem(1)
        verdicts = [
            Evaluator(compile_sim=compile_sim).evaluate(
                problem,
                f"  reg r;\n  initial\n    {stmt}\n"
                "  assign out = in;\nendmodule\n",
                PromptLevel.LOW,
            )
            for stmt in ("r = #nope 1'b0;", "#nope r = 1'b0;")
        ]
        assert verdicts[0] == verdicts[1]
        assert not verdicts[0].compiled
        assert verdicts[0].stage == "elaborate"
        assert verdicts[0].error_line == 4
        assert "undeclared identifier 'nope'" in verdicts[0].compile_errors[0]

    @ENGINES
    def test_delay_names_stay_out_of_implicit_sensitivity(self, compile_sim):
        # ``@*`` watches what the body reads; the delay is not a read,
        # so a change of ``d`` alone does not re-run the block
        source = """
        module m;
          reg [3:0] a, d, q;
          integer runs;
          initial runs = 0;
          always @* begin
            runs = runs + 1;
            q = #d a;
          end
          initial begin
            a = 1; d = 1;
            #5 d = 2;
            #5 $display("%0d", runs);
          end
        endmodule
        """
        assert _display(source, compile_sim) == ["1"]
