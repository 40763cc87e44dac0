"""Simulator semantics tests: scheduling, NBA, delays, edges, tasks."""

import pytest

from repro.verilog import (
    SimulationError,
    compile_design,
    run_simulation,
    simulate,
)


def sim(source, top="tb", **kw):
    report, result = run_simulation(source, top=top, **kw)
    assert report.ok, report.errors
    assert result is not None, report.errors
    return result


class TestBasicExecution:
    def test_initial_display(self):
        result = sim('module tb; initial $display("hello"); endmodule')
        assert result.output == ["hello"]

    def test_finish_sets_flag(self):
        result = sim("module tb; initial $finish; endmodule")
        assert result.finished

    def test_no_finish_quiesces(self):
        result = sim('module tb; initial $display("x"); endmodule')
        assert not result.finished

    def test_delays_advance_time(self):
        result = sim(
            'module tb; initial begin #7 $display("t=%0t", $time); '
            "$finish; end endmodule"
        )
        assert result.output == ["t=7"]

    def test_sequential_delays_accumulate(self):
        result = sim(
            "module tb; initial begin #3; #4; "
            '$display("%0d", $time); $finish; end endmodule'
        )
        assert result.output == ["7"]

    def test_two_initial_blocks_interleave(self):
        result = sim(
            "module tb;\n"
            'initial begin #2 $display("a"); end\n'
            'initial begin #1 $display("b"); #2 $display("c"); end\n'
            "endmodule"
        )
        assert result.output == ["b", "a", "c"]

    def test_stop_behaves_like_finish(self):
        result = sim("module tb; initial $stop; endmodule")
        assert result.finished


class TestBlockingVsNonblocking:
    def test_blocking_visible_immediately(self):
        result = sim(
            "module tb; reg [3:0] a, b;\n"
            "initial begin a = 4'd3; b = a; "
            '$display("%0d", b); $finish; end endmodule'
        )
        assert result.output == ["3"]

    def test_nonblocking_old_value_in_same_step(self):
        result = sim(
            "module tb; reg [3:0] a, b;\n"
            "initial begin\n"
            "  a = 4'd1;\n"
            "  a <= 4'd5;\n"
            '  $display("before=%0d", a);\n'
            "  #1;\n"
            '  $display("after=%0d", a);\n'
            "  $finish;\nend\nendmodule"
        )
        assert result.output == ["before=1", "after=5"]

    def test_nba_swap_idiom(self):
        result = sim(
            "module tb; reg [3:0] a, b; reg clk;\n"
            "always @(posedge clk) a <= b;\n"
            "always @(posedge clk) b <= a;\n"
            "initial begin\n"
            "  a = 4'd1; b = 4'd2; clk = 0;\n"
            "  #1 clk = 1;\n"
            '  #1 $display("%0d %0d", a, b);\n'
            "  $finish;\nend\nendmodule"
        )
        assert result.output == ["2 1"]

    def test_nba_with_intra_delay(self):
        result = sim(
            "module tb; reg [3:0] q;\n"
            "initial begin\n"
            "  q = 0;\n"
            "  q <= #5 4'd9;\n"
            '  #1 $display("at1=%0d", q);\n'
            '  #5 $display("at6=%0d", q);\n'
            "  $finish;\nend\nendmodule"
        )
        assert result.output == ["at1=0", "at6=9"]

    def test_blocking_intra_delay(self):
        # a = #3 expr: RHS evaluated now, assigned after the delay
        result = sim(
            "module tb; reg [3:0] a, b;\n"
            "initial begin\n"
            "  a = 4'd1; b = 4'd0;\n"
            "  b = #3 a;\n"
            '  $display("t=%0t b=%0d", $time, b);\n'
            "  $finish;\nend\nendmodule"
        )
        assert result.output == ["t=3 b=1"]


class TestEdgesAndWaits:
    def test_posedge_wakeup(self):
        result = sim(
            "module tb; reg clk;\n"
            'initial begin clk = 0; #5 clk = 1; #5 clk = 0; #5 clk = 1; #1 $finish; end\n'
            'always @(posedge clk) $display("pos at %0t", $time);\n'
            "endmodule"
        )
        assert result.output == ["pos at 5", "pos at 15"]

    def test_negedge_wakeup(self):
        result = sim(
            "module tb; reg clk;\n"
            "initial begin clk = 0; #5 clk = 1; #5 clk = 0; #1 $finish; end\n"
            'always @(negedge clk) $display("neg at %0t", $time);\n'
            "endmodule"
        )
        assert result.output == ["neg at 10"]

    def test_x_to_one_is_posedge(self):
        result = sim(
            "module tb; reg clk;\n"
            "initial begin #5 clk = 1; #1 $finish; end\n"
            'always @(posedge clk) $display("pos");\n'
            "endmodule"
        )
        assert result.output == ["pos"]

    def test_any_change_sensitivity(self):
        # first write lands at t=1 so the always block is already waiting
        # (a t=0 write races with process start-up, as in real simulators)
        result = sim(
            "module tb; reg [1:0] v;\n"
            "initial begin #1 v = 0; #1 v = 1; #1 v = 2; #1 $finish; end\n"
            'always @(v) $display("v=%0d", v);\n'
            "endmodule"
        )
        assert result.output == ["v=0", "v=1", "v=2"]

    def test_star_sensitivity(self):
        result = sim(
            "module tb; reg a, b; reg y;\n"
            "always @* y = a & b;\n"
            "initial begin\n"
            "  a = 0; b = 0; #1;\n"
            "  a = 1; #1; b = 1; #1;\n"
            '  $display("y=%b", y); $finish;\nend\nendmodule'
        )
        assert result.output == ["y=1"]

    def test_wait_statement(self):
        result = sim(
            "module tb; reg go;\n"
            "initial begin go = 0; #7 go = 1; end\n"
            'initial begin wait (go) $display("went at %0t", $time); $finish; end\n'
            "endmodule"
        )
        assert result.output == ["went at 7"]

    def test_multiple_waiters_same_signal(self):
        result = sim(
            "module tb; reg clk;\n"
            "initial begin clk = 0; #5 clk = 1; #1 $finish; end\n"
            'always @(posedge clk) $display("w1");\n'
            'always @(posedge clk) $display("w2");\n'
            "endmodule"
        )
        assert sorted(result.output) == ["w1", "w2"]

    def test_clock_generator_always_delay(self):
        result = sim(
            "module tb; reg clk; integer n;\n"
            "always #5 clk = ~clk;\n"
            "initial begin clk = 0; n = 0; end\n"
            "always @(posedge clk) begin n = n + 1; if (n == 3) $finish; end\n"
            "endmodule"
        )
        assert result.finished
        assert result.time == 25


class TestContinuousAssign:
    def test_assign_follows_inputs(self):
        result = sim(
            "module tb; reg a, b; wire y;\n"
            "assign y = a ^ b;\n"
            "initial begin a = 0; b = 1; #1 "
            '$display("%b", y); a = 1; #1 $display("%b", y); $finish; end\n'
            "endmodule"
        )
        assert result.output == ["1", "0"]

    def test_assign_chains_propagate(self):
        result = sim(
            "module tb; reg a; wire b, c, d;\n"
            "assign b = ~a;\nassign c = ~b;\nassign d = ~c;\n"
            'initial begin a = 1; #1 $display("%b%b%b", b, c, d); $finish; end\n'
            "endmodule"
        )
        assert result.output == ["010"]

    def test_constant_assign(self):
        result = sim(
            "module tb; wire [3:0] k;\n"
            "assign k = 4'd9;\n"
            'initial begin #1 $display("%0d", k); $finish; end\nendmodule'
        )
        assert result.output == ["9"]

    def test_assign_to_part_select(self):
        result = sim(
            "module tb; reg [7:0] src; wire [7:0] y;\n"
            "assign y[3:0] = src[7:4];\n"
            "initial begin src = 8'hA5; #1 "
            '$display("%b", y[3:0]); $finish; end\nendmodule'
        )
        assert result.output == ["1010"]


class TestMemories:
    def test_memory_write_read(self):
        result = sim(
            "module tb; reg [7:0] mem [0:3];\n"
            "initial begin\n"
            "  mem[2] = 8'hAB;\n"
            '  $display("%h", mem[2]);\n'
            "  $finish;\nend\nendmodule"
        )
        assert result.output == ["ab"]

    def test_memory_uninitialized_is_x(self):
        result = sim(
            "module tb; reg [3:0] mem [0:3]; reg [3:0] v;\n"
            "initial begin v = mem[1]; "
            'if (v === 4\'bxxxx) $display("is-x"); $finish; end\nendmodule'
        )
        assert result.output == ["is-x"]

    def test_memory_out_of_range_read_is_x(self):
        result = sim(
            "module tb; reg [3:0] mem [0:3];\n"
            "initial begin mem[0] = 1; "
            'if (mem[9] === 4\'bxxxx) $display("oob-x"); $finish; end\nendmodule'
        )
        assert result.output == ["oob-x"]

    def test_memory_variable_index(self):
        result = sim(
            "module tb; reg [7:0] mem [0:7]; integer i; reg [7:0] total;\n"
            "initial begin\n"
            "  for (i = 0; i < 8; i = i + 1) mem[i] = i[7:0];\n"
            "  total = 0;\n"
            "  for (i = 0; i < 8; i = i + 1) total = total + mem[i];\n"
            '  $display("%0d", total); $finish;\nend\nendmodule'
        )
        assert result.output == ["28"]


class TestDisplayFormatting:
    def test_decimal_binary_hex(self):
        result = sim(
            "module tb; reg [7:0] v;\n"
            'initial begin v = 8\'hA5; $display("%d %b %h", v, v, v); $finish; end\n'
            "endmodule"
        )
        assert result.output == ["165 10100101 a5"]

    def test_x_renders_in_each_base(self):
        result = sim(
            "module tb; reg [3:0] v;\n"
            'initial begin $display("%d %b", v, v); $finish; end\nendmodule'
        )
        assert result.output == [" x xxxx"]

    def test_percent_escape_and_newline(self):
        result = sim(
            'module tb; initial begin $display("100%%\\ndone"); $finish; end endmodule'
        )
        assert result.output == ["100%\ndone"]

    def test_display_without_format(self):
        result = sim(
            "module tb; reg [3:0] a; initial begin a = 5; "
            "$display(a); $finish; end endmodule"
        )
        assert result.output == [" 5"]

    def test_monitor_prints_on_change(self):
        result = sim(
            "module tb; reg [3:0] v;\n"
            "initial begin\n"
            '  $monitor("v=%0d", v);\n'
            "  v = 0; #1 v = 1; #1 v = 1; #1 v = 2; #1 $finish;\n"
            "end\nendmodule"
        )
        assert result.output == ["v=0", "v=1", "v=2"]

    @pytest.mark.parametrize("compile_sim", [False, True],
                             ids=["interpreter", "compiled"])
    def test_a_new_monitor_replaces_the_last(self, compile_sim):
        # IEEE 1364-2005 17.1.3: only one monitor list is active
        result = sim(
            "module tb; reg [3:0] m;\n"
            "initial begin\n"
            '  $monitor("first %0d", m);\n'
            '  $monitor("second %0d", m);\n'
            "  #1 m = 1; #1 $finish;\n"
            "end\nendmodule",
            compile_sim=compile_sim,
        )
        assert result.output == ["second x", "second 1"]

    @pytest.mark.parametrize("compile_sim", [False, True],
                             ids=["interpreter", "compiled"])
    def test_a_later_monitor_takes_over_from_the_first(self, compile_sim):
        result = sim(
            "module tb; reg [3:0] a, b;\n"
            "initial begin\n"
            '  a = 0; b = 0; $monitor("a=%0d", a);\n'
            '  #1 a = 1; #1 $monitor("b=%0d", b);\n'
            "  #1 a = 2; b = 3; #1 $finish;\n"
            "end\nendmodule",
            compile_sim=compile_sim,
        )
        assert result.output == ["a=0", "a=1", "b=0", "b=3"]

    def test_signed_display(self):
        result = sim(
            "module tb; reg signed [7:0] v;\n"
            'initial begin v = -3; $display("%0d", v); $finish; end\nendmodule'
        )
        assert result.output == ["-3"]


class TestGuards:
    def test_always_without_timing_raises(self):
        report, result = run_simulation(
            "module tb; reg a; always a = ~a; endmodule", top="tb"
        )
        assert report.ok  # compiles fine...
        assert result is None  # ...but dies at runtime
        assert "runtime" in report.errors[0] or result is None

    def test_zero_delay_oscillation_detected(self):
        # x is a fixed point of ~, so the classic inverter loop settles; a
        # case-equality loop genuinely oscillates in zero time instead.
        source = (
            "module tb; wire a; wire b;\n"
            "assign a = (b === 1'b0) ? 1'b1 : 1'b0;\nassign b = a;\n"
            "initial #1 $finish;\nendmodule"
        )
        report, result = run_simulation(source, top="tb", max_steps=20_000)
        assert result is None  # oscillates in zero time -> step limit

    def test_inverter_loop_settles_at_x(self):
        # the 4-state fixed point: ~x == x, so this quiesces, not hangs
        source = (
            "module tb; wire a; wire b;\n"
            "assign a = ~b;\nassign b = a;\n"
            "initial begin #1 if (a === 1'bx) $display(\"settled-x\"); "
            "$finish; end\nendmodule"
        )
        report, result = run_simulation(source, top="tb")
        assert result is not None
        assert result.output == ["settled-x"]

    def test_max_time_stops_clock(self):
        result = sim(
            "module tb; reg clk; always #5 clk = ~clk;\n"
            "initial clk = 0;\nendmodule",
            max_time=100,
        )
        assert not result.finished
        assert result.time <= 100

    def test_runaway_while_loop_detected(self):
        report, result = run_simulation(
            "module tb; reg [3:0] i; initial begin i = 0; "
            "while (1) i = i + 1; end endmodule",
            top="tb",
            max_steps=20_000,
        )
        assert result is None


class TestRandom:
    def test_random_is_deterministic(self):
        source = (
            "module tb; integer a;\n"
            'initial begin a = $random; $display("%0d", a); $finish; end\nendmodule'
        )
        first = sim(source).output
        second = sim(source).output
        assert first == second

    def test_random_values_differ_in_sequence(self):
        result = sim(
            "module tb; integer a, b;\n"
            "initial begin a = $random; b = $random; "
            'if (a !== b) $display("differ"); $finish; end\nendmodule'
        )
        assert result.output == ["differ"]


class TestHierarchy:
    DUT = """
    module inv(input x, output y);
      assign y = ~x;
    endmodule
    """

    def test_instance_connection(self):
        result = sim(
            self.DUT
            + "module tb; reg a; wire b;\n"
            "inv dut(.x(a), .y(b));\n"
            'initial begin a = 0; #1 $display("%b", b); $finish; end\nendmodule'
        )
        assert result.output == ["1"]

    def test_positional_connection(self):
        result = sim(
            self.DUT
            + "module tb; reg a; wire b;\n"
            "inv dut(a, b);\n"
            'initial begin a = 1; #1 $display("%b", b); $finish; end\nendmodule'
        )
        assert result.output == ["0"]

    def test_two_level_hierarchy(self):
        source = (
            self.DUT
            + """
        module double_inv(input x, output y);
          wire mid;
          inv i0(.x(x), .y(mid));
          inv i1(.x(mid), .y(y));
        endmodule
        module tb; reg a; wire b;
          double_inv dut(.x(a), .y(b));
          initial begin a = 1; #1 $display("%b", b); $finish; end
        endmodule
        """
        )
        result = sim(source)
        assert result.output == ["1"]

    def test_parameter_override(self):
        source = """
        module widget #(parameter W = 4)(output [7:0] size);
          assign size = W;
        endmodule
        module tb;
          wire [7:0] s1, s2;
          widget w1(.size(s1));
          widget #(.W(9)) w2(.size(s2));
          initial begin #1 $display("%0d %0d", s1, s2); $finish; end
        endmodule
        """
        result = sim(source)
        assert result.output == ["4 9"]

    def test_output_drives_expression_target(self):
        source = """
        module pair(output [1:0] o);
          assign o = 2'b10;
        endmodule
        module tb;
          wire a, b;
          pair p(.o({a, b}));
          initial begin #1 $display("%b%b", a, b); $finish; end
        endmodule
        """
        result = sim(source)
        assert result.output == ["10"]


class TestFunctions:
    def test_function_call_in_assign(self):
        source = """
        module tb;
          reg [3:0] a; wire [3:0] b;
          function [3:0] plus2;
            input [3:0] x;
            plus2 = x + 2;
          endfunction
          assign b = plus2(a);
          initial begin a = 3; #1 $display("%0d", b); $finish; end
        endmodule
        """
        assert sim(source).output == ["5"]

    def test_function_with_case(self):
        source = """
        module tb;
          wire [1:0] g;
          function [1:0] gray;
            input [1:0] x;
            case (x)
              2'd0: gray = 2'b00;
              2'd1: gray = 2'b01;
              2'd2: gray = 2'b11;
              default: gray = 2'b10;
            endcase
          endfunction
          assign g = gray(2'd2);
          initial begin #1 $display("%b", g); $finish; end
        endmodule
        """
        assert sim(source).output == ["11"]

    def test_recursive_data_flow_through_function(self):
        source = """
        module tb;
          integer i; reg [7:0] acc;
          function [7:0] dbl;
            input [7:0] x;
            dbl = x * 2;
          endfunction
          initial begin
            acc = 1;
            for (i = 0; i < 3; i = i + 1) acc = dbl(acc);
            $display("%0d", acc); $finish;
          end
        endmodule
        """
        assert sim(source).output == ["8"]


class TestCaseSemantics:
    def test_casez_wildcard(self):
        source = """
        module tb; reg [3:0] v; reg [1:0] out;
          always @(*) casez (v)
            4'b1???: out = 2'd3;
            4'b01??: out = 2'd2;
            default: out = 2'd0;
          endcase
          initial begin
            v = 4'b1010; #1 $display("%0d", out);
            v = 4'b0110; #1 $display("%0d", out);
            v = 4'b0010; #1 $display("%0d", out);
            $finish;
          end
        endmodule
        """
        assert sim(source).output == ["3", "2", "0"]

    def test_case_x_exact_match(self):
        source = """
        module tb; reg [1:0] v; reg hit;
          initial begin
            hit = 0;
            case (v)
              2'bxx: hit = 1;
              default: hit = 0;
            endcase
            $display("%b", hit); $finish;
          end
        endmodule
        """
        assert sim(source).output == ["1"]

    def test_case_no_match_no_default(self):
        source = """
        module tb; reg [1:0] v; reg [1:0] out;
          initial begin
            v = 2'd3; out = 2'd0;
            case (v)
              2'd0: out = 2'd1;
              2'd1: out = 2'd2;
            endcase
            $display("%0d", out); $finish;
          end
        endmodule
        """
        assert sim(source).output == ["0"]


class TestWidthSemantics:
    def test_carry_preserved_by_context(self):
        source = """
        module tb; reg a, b; wire [1:0] s;
          assign s = a + b;
          initial begin a = 1; b = 1; #1 $display("%0d", s); $finish; end
        endmodule
        """
        assert sim(source).output == ["2"]

    def test_comparison_widens_add(self):
        source = """
        module tb; reg a, b; reg ok;
          initial begin
            a = 1; b = 1;
            ok = ({1'b1, 1'b0} == a + b);
            $display("%b", ok); $finish;
          end
        endmodule
        """
        assert sim(source).output == ["1"]

    def test_truncation_on_assign(self):
        source = """
        module tb; reg [3:0] q;
          initial begin q = 8'hFF; $display("%0d", q); $finish; end
        endmodule
        """
        assert sim(source).output == ["15"]

    def test_signed_arithmetic(self):
        source = """
        module tb; reg signed [7:0] a, b; reg signed [7:0] c;
          initial begin a = -5; b = 3; c = a + b; $display("%0d", c); $finish; end
        endmodule
        """
        assert sim(source).output == ["-2"]

    def test_arith_shift_signed_register(self):
        source = """
        module tb; reg signed [7:0] a;
          initial begin a = -8; a = a >>> 1; $display("%0d", a); $finish; end
        endmodule
        """
        assert sim(source).output == ["-4"]
