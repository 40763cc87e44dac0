"""Tests for the Verilog parser (repro.verilog.parser)."""

import pytest

from repro.verilog import ParseError, parse
from repro.verilog import ast


def parse_module(body, header="module m(input a, output b);"):
    unit = parse(f"{header}\n{body}\nendmodule")
    return unit.modules[0]


def first_always(body, header="module m(input clk, output reg q);"):
    return parse_module(body, header).always_blocks[0].body


class TestModuleHeaders:
    def test_ansi_ports(self):
        mod = parse("module m(input clk, output reg [3:0] q); endmodule").modules[0]
        assert [p.name for p in mod.ports] == ["clk", "q"]
        assert mod.ports[1].net_kind == "reg"
        assert mod.ports[1].range is not None

    def test_ansi_grouped_ports(self):
        mod = parse("module m(input a, b, c, output y); endmodule").modules[0]
        assert [p.direction for p in mod.ports] == ["input"] * 3 + ["output"]

    def test_grouped_range_shared(self):
        mod = parse("module m(input [7:0] a, b); endmodule").modules[0]
        assert mod.ports[1].range is not None

    def test_non_ansi_ports(self):
        source = """
        module m(a, b);
          input a;
          output reg b;
        endmodule
        """
        mod = parse(source).modules[0]
        assert [p.name for p in mod.ports] == ["a", "b"]
        assert mod.ports[1].net_kind == "reg"

    def test_non_ansi_missing_direction_rejected(self):
        with pytest.raises(ParseError):
            parse("module m(a); endmodule")

    def test_no_ports(self):
        mod = parse("module tb; endmodule").modules[0]
        assert mod.ports == []

    def test_empty_port_list(self):
        assert parse("module tb(); endmodule").modules[0].ports == []

    def test_parameter_header(self):
        mod = parse(
            "module m #(parameter W = 8, D = 2)(input [W-1:0] a); endmodule"
        ).modules[0]
        assert [p.name for p in mod.params] == ["W", "D"]

    def test_signed_port(self):
        mod = parse("module m(input signed [7:0] a); endmodule").modules[0]
        assert mod.ports[0].signed

    def test_multiple_modules(self):
        unit = parse("module a; endmodule\nmodule b; endmodule")
        assert [m.name for m in unit.modules] == ["a", "b"]

    def test_missing_endmodule(self):
        with pytest.raises(ParseError):
            parse("module m(input a);")

    def test_junk_at_top_level(self):
        with pytest.raises(ParseError):
            parse("wire x;")

    def test_empty_source(self):
        with pytest.raises(ParseError):
            parse("  \n// nothing\n")


class TestDeclarations:
    def test_wire_reg_integer(self):
        mod = parse_module("wire w; reg r; integer i;")
        kinds = {d.name: d.kind for d in mod.decls}
        assert kinds == {"w": "wire", "r": "reg", "i": "integer"}

    def test_vector_decl(self):
        mod = parse_module("reg [7:0] data;")
        assert mod.decls[0].range is not None

    def test_memory_decl(self):
        mod = parse_module("reg [7:0] mem [0:63];")
        assert mod.decls[0].array is not None

    def test_multiple_names(self):
        mod = parse_module("wire x, y, z;")
        assert [d.name for d in mod.decls] == ["x", "y", "z"]

    def test_initialized_reg(self):
        mod = parse_module("reg r = 1'b0;")
        assert mod.decls[0].init is not None

    def test_signed_decl(self):
        mod = parse_module("reg signed [7:0] s;")
        assert mod.decls[0].signed

    def test_parameters_and_localparams(self):
        mod = parse_module("parameter A = 1, B = 2; localparam C = A + B;")
        names = [(p.name, p.is_local) for p in mod.params]
        assert names == [("A", False), ("B", False), ("C", True)]


class TestStatements:
    def test_if_else_chain(self):
        stmt = first_always("always @(posedge clk) if (q) q <= 0; else q <= 1;")
        assert isinstance(stmt, ast.EventControl)
        assert isinstance(stmt.body, ast.If)
        assert stmt.body.else_stmt is not None

    def test_begin_end_block(self):
        stmt = first_always("always @(posedge clk) begin q <= 0; q <= 1; end")
        assert isinstance(stmt.body, ast.Block)
        assert len(stmt.body.stmts) == 2

    def test_named_block(self):
        stmt = first_always("always @(posedge clk) begin : blk q <= 0; end")
        assert stmt.body.name == "blk"

    def test_case_with_default(self):
        stmt = first_always(
            "always @(posedge clk) case (q) 1'b0: q <= 1; default: q <= 0; endcase"
        )
        case = stmt.body
        assert isinstance(case, ast.Case)
        assert len(case.items) == 2
        assert case.items[1].exprs == []

    def test_casez(self):
        stmt = first_always(
            "always @(*) casez (q) 1'b?: q = 0; endcase",
        )
        assert stmt.body.kind == "casez"

    def test_case_multiple_labels(self):
        stmt = first_always(
            "always @(*) case (q) 1'b0, 1'b1: q = 0; endcase",
        )
        assert len(stmt.body.items[0].exprs) == 2

    def test_for_loop(self):
        mod = parse_module(
            "integer i;\nalways @(posedge clk) for (i = 0; i < 4; i = i + 1) q <= i;",
            header="module m(input clk, output reg [3:0] q);",
        )
        body = mod.always_blocks[0].body.body
        assert isinstance(body, ast.For)

    def test_while_and_repeat(self):
        stmt = first_always(
            "always @(posedge clk) begin while (q) q <= 0; repeat (3) q <= 1; end"
        )
        assert isinstance(stmt.body.stmts[0], ast.While)
        assert isinstance(stmt.body.stmts[1], ast.Repeat)

    def test_forever(self):
        mod = parse_module("initial forever #5 q = ~q;",
                           header="module m(output reg q);")
        assert isinstance(mod.initial_blocks[0].body, ast.Forever)

    def test_delay_statement(self):
        mod = parse_module("initial begin #10 q = 1; #5; end",
                           header="module m(output reg q);")
        block = mod.initial_blocks[0].body
        assert isinstance(block.stmts[0], ast.DelayStmt)
        assert isinstance(block.stmts[1].body, ast.NullStmt)

    def test_intra_assignment_delay(self):
        mod = parse_module("initial q = #3 1;", header="module m(output reg q);")
        assign = mod.initial_blocks[0].body
        assert assign.delay is not None

    def test_event_control_star(self):
        stmt = first_always("always @* q = 1;")
        assert stmt.senses == []

    def test_event_control_paren_star(self):
        stmt = first_always("always @(*) q = 1;")
        assert stmt.senses == []

    def test_sensitivity_list_or_and_comma(self):
        stmt = first_always("always @(posedge clk or negedge q) q <= 1;")
        assert [s.edge for s in stmt.senses] == ["posedge", "negedge"]
        stmt = first_always("always @(clk, q) q = 1;")
        assert [s.edge for s in stmt.senses] == [None, None]

    def test_nonblocking_vs_blocking(self):
        stmt = first_always("always @(posedge clk) begin q <= 1; q = 0; end")
        assert stmt.body.stmts[0].nonblocking
        assert not stmt.body.stmts[1].nonblocking

    def test_wait_statement(self):
        mod = parse_module("initial wait (q) q = 0;", header="module m(output reg q);")
        assert isinstance(mod.initial_blocks[0].body, ast.Wait)

    def test_system_task(self):
        mod = parse_module('initial $display("x=%d", 1);',
                           header="module m;")
        task = mod.initial_blocks[0].body
        assert task.name == "$display"
        assert len(task.args) == 2

    def test_concat_lvalue(self):
        stmt = first_always("always @(posedge clk) {q, q} <= 2'b01;")
        assert isinstance(stmt.body.target, ast.Concat)

    def test_unsupported_keyword_stmt(self):
        with pytest.raises(ParseError):
            parse_module("always @(posedge clk) fork q <= 1; join")


class TestExpressions:
    def assign_value(self, expr):
        mod = parse_module(f"assign b = {expr};")
        return mod.assigns[0].value

    def test_precedence_mul_over_add(self):
        node = self.assign_value("1 + 2 * 3")
        assert node.op == "+"
        assert node.rhs.op == "*"

    def test_precedence_shift_vs_compare(self):
        node = self.assign_value("a << 1 < 2")
        assert node.op == "<"
        assert node.lhs.op == "<<"

    def test_ternary_nesting(self):
        node = self.assign_value("a ? 1 : a ? 2 : 3")
        assert isinstance(node, ast.Ternary)
        assert isinstance(node.if_false, ast.Ternary)

    def test_unary_reduction(self):
        node = self.assign_value("&a")
        assert isinstance(node, ast.Unary)
        assert node.op == "&"

    def test_concat_and_replicate(self):
        node = self.assign_value("{a, 2'b01}")
        assert isinstance(node, ast.Concat)
        node = self.assign_value("{4{a}}")
        assert isinstance(node, ast.Replicate)

    def test_replicate_of_concat(self):
        node = self.assign_value("{2{a, a}}")
        assert isinstance(node, ast.Replicate)
        assert isinstance(node.value, ast.Concat)

    def test_bit_and_part_select(self):
        node = self.assign_value("a[3]")
        assert isinstance(node, ast.BitSelect)
        node = self.assign_value("a[3:1]")
        assert isinstance(node, ast.PartSelect)

    def test_indexed_part_select(self):
        node = self.assign_value("a[3 +: 2]")
        assert isinstance(node, ast.IndexedPartSelect)
        assert node.ascending
        node = self.assign_value("a[3 -: 2]")
        assert not node.ascending

    def test_system_function_call(self):
        node = self.assign_value("$signed(a)")
        assert isinstance(node, ast.SystemCall)

    def test_parenthesized(self):
        node = self.assign_value("(1 + 2) * 3")
        assert node.op == "*"
        assert node.lhs.op == "+"

    def test_number_widths(self):
        node = self.assign_value("8'hFF")
        assert node.width == 8
        assert node.value_bits == "11111111"

    def test_bare_decimal_is_32bit_signed(self):
        node = self.assign_value("5")
        assert node.width == 32
        assert node.signed

    def test_x_literal_expansion(self):
        node = self.assign_value("4'bx")
        assert node.value_bits == "xxxx"

    def test_z_hex_digit(self):
        node = self.assign_value("8'hzz")
        assert node.value_bits == "z" * 8

    def test_power_operator(self):
        node = self.assign_value("2 ** 3")
        assert node.op == "**"

    def test_missing_operand_rejected(self):
        with pytest.raises(ParseError):
            parse_module("assign b = a + ;")

    def test_unbalanced_paren_rejected(self):
        with pytest.raises(ParseError):
            parse_module("assign b = (a;")


class TestInstancesAndAssigns:
    def test_named_connections(self):
        source = """
        module child(input x, output y); assign y = x; endmodule
        module top(input a, output b);
          child c0(.x(a), .y(b));
        endmodule
        """
        top = parse(source).module("top")
        inst = top.instances[0]
        assert inst.module_name == "child"
        assert inst.connections[0].name == "x"

    def test_positional_connections(self):
        source = """
        module top(input a, output b);
          child c0(a, b);
        endmodule
        """
        inst = parse(source).module("top").instances[0]
        assert inst.connections[0].name is None

    def test_parameter_overrides(self):
        source = """
        module top;
          child #(.W(16)) c0(.x(1'b0));
        endmodule
        """
        inst = parse(source).module("top").instances[0]
        assert inst.param_overrides[0].name == "W"

    def test_unconnected_port(self):
        source = "module top; child c0(.x()); endmodule"
        inst = parse(source).module("top").instances[0]
        assert inst.connections[0].expr is None

    def test_multiple_assigns_one_statement(self):
        mod = parse_module("assign b = a, b = a;")
        assert len(mod.assigns) == 2

    def test_assign_with_delay_ignored(self):
        mod = parse_module("assign #1 b = a;")
        assert len(mod.assigns) == 1


class TestFunctions:
    def test_function_parsed(self):
        source = """
        module m(input [3:0] a, output [3:0] b);
          function [3:0] plus1;
            input [3:0] x;
            plus1 = x + 1;
          endfunction
          assign b = plus1(a);
        endmodule
        """
        mod = parse(source).modules[0]
        assert mod.functions[0].name == "plus1"
        assert len(mod.functions[0].inputs) == 1

    def test_function_with_locals(self):
        source = """
        module m(input [3:0] a, output [3:0] b);
          function [3:0] f;
            input [3:0] x;
            reg [3:0] t;
            begin t = x; f = t; end
          endfunction
          assign b = f(a);
        endmodule
        """
        mod = parse(source).modules[0]
        assert len(mod.functions[0].decls) == 1


class TestLiteralLimits:
    def test_decimal_digits_beyond_int_conversion(self):
        with pytest.raises(ParseError, match="decimal literal too long") as info:
            parse_module("\nassign b = 5000'd" + "9" * 5000 + ";")
        assert (info.value.line, info.value.column) == (3, 12)

    def test_long_binary_digits_parse(self):
        module = parse_module("assign b = 4'b" + "1" * 5000 + ";")
        assert module.assigns[0].value.value_bits == "1111"


class TestFirstLine:
    def test_unit_lines_start_at_first_line(self):
        unit = parse("\nmodule m;\nendmodule\n", first_line=20)
        assert unit.modules[0].line == 21
        assert unit.eof_line == 23

    def test_eof_line_ignores_escaped_newline_in_string(self):
        unit = parse('module m;\ninitial $display("a\\\nb");\nendmodule\n')
        assert unit.eof_line == 4
