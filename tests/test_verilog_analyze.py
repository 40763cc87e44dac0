"""Tests for the netlist static analyzer (repro.verilog.analyze)."""

import pytest

from repro.problems import ALL_PROBLEMS
from repro.verilog import (
    AnalysisError,
    Finding,
    analyze_source,
    check_design,
    compile_design,
    error_findings,
    finding_from_dict,
    finding_to_dict,
    infer_top,
    parse,
)


def findings_of(source: str, top: str | None = None):
    report, findings = analyze_source(source, top=top)
    assert report.ok, report.errors
    return findings


def codes(source: str, top: str | None = None) -> set:
    return {f.code for f in findings_of(source, top=top)}


class TestCombLoops:
    def test_assign_cycle_flagged(self):
        source = """
        module m(input a, output y);
          wire b;
          assign b = y | a;
          assign y = b & a;
        endmodule
        """
        found = [f for f in findings_of(source) if f.code == "comb-loop"]
        assert found and found[0].severity == "error"
        assert "b" in found[0].message and "y" in found[0].message

    def test_always_comb_cycle_flagged(self):
        source = """
        module m(input a, output reg y);
          reg b;
          always @(*) begin
            b = y | a;
            y = b & a;
          end
        endmodule
        """
        assert "comb-loop" in codes(source)

    def test_cross_instance_cycle_flagged(self):
        # neither module has a loop alone; the closed hierarchy does
        source = """
        module inv(input x, output y); assign y = ~x; endmodule
        module top(input a, output o);
          wire back;
          inv i0(.x(o), .y(back));
          assign o = back & a;
        endmodule
        """
        assert "comb-loop" in codes(source, top="top")

    def test_register_breaks_cycle(self):
        source = """
        module m(input clk, input a, output reg y);
          wire b;
          assign b = y | a;
          always @(posedge clk) y <= b;
        endmodule
        """
        assert "comb-loop" not in codes(source)

    def test_blocking_overwrite_not_a_loop(self):
        # s reads its own earlier blocking value, fully re-assigned
        # first: a false positive for naive self-edge detection
        source = """
        module m(input [1:0] c, output reg [1:0] s);
          always @(*) begin
            s = 0;
            if (c[0]) s = s + 1;
          end
        endmodule
        """
        assert "comb-loop" not in codes(source)


class TestElaboratedChecks:
    def test_undriven_across_instance(self):
        source = """
        module child(input x, output y); assign y = x; endmodule
        module top(input a, output o);
          wire mid;
          child c(.y(o));
        endmodule
        """
        found = codes(source, top="top")
        assert "undriven" in found

    def test_multi_driven_across_procs(self):
        source = """
        module m(input a, input b, output y);
          assign y = a;
          assign y = b;
        endmodule
        """
        found = [f for f in findings_of(source) if f.code == "multi-driven"]
        assert found and found[0].severity == "error"

    def test_disjoint_bit_drivers_clean(self):
        source = """
        module m(input a, input b, output [1:0] y);
          assign y[0] = a;
          assign y[1] = b;
        endmodule
        """
        assert "multi-driven" not in codes(source)

    def test_port_width_mismatch(self):
        source = """
        module child(input [7:0] x, output y); assign y = ^x; endmodule
        module top(input [3:0] a, output o);
          child c(.x(a), .y(o));
        endmodule
        """
        assert "port-width-mismatch" in codes(source, top="top")

    def test_x_prop_unreset_register(self):
        source = """
        module m(input clk, output reg q);
          always @(posedge clk) q <= ~q;
        endmodule
        """
        assert "x-prop" in codes(source)

    def test_x_prop_reset_clean(self):
        source = """
        module m(input clk, input rst, input d, output reg q);
          always @(posedge clk)
            if (rst) q <= 0;
            else q <= d;
        endmodule
        """
        assert "x-prop" not in codes(source)


class TestFsmAndConst:
    def test_unreachable_state_flagged(self):
        source = """
        module m(input clk, input rst, output reg [1:0] state);
          always @(posedge clk)
            if (rst) state <= 2'd0;
            else case (state)
              2'd0: state <= 2'd1;
              2'd1: state <= 2'd0;
              2'd2: state <= 2'd3;
              2'd3: state <= 2'd2;
            endcase
        endmodule
        """
        found = codes(source)
        assert "fsm-unreachable-state" in found
        assert "fsm-dead-transition" in found

    def test_reachable_fsm_clean(self):
        source = """
        module m(input clk, input rst, output reg [1:0] state);
          always @(posedge clk)
            if (rst) state <= 2'd0;
            else case (state)
              2'd0: state <= 2'd1;
              2'd1: state <= 2'd2;
              2'd2: state <= 2'd0;
              default: state <= 2'd0;
            endcase
        endmodule
        """
        found = codes(source)
        assert "fsm-unreachable-state" not in found

    def test_const_branch_flagged(self):
        source = """
        module m(input a, output reg y);
          wire sel;
          assign sel = 1'b1;
          always @(*) begin
            if (sel) y = a;
            else y = ~a;
          end
        endmodule
        """
        assert "const-branch" in codes(source)

    def test_dead_logic_flagged(self):
        source = """
        module m(input a, input b, output y);
          wire ghost;
          assign ghost = a ^ b;
          assign y = a & b;
        endmodule
        """
        found = [f for f in findings_of(source) if f.code == "dead-logic"]
        assert found and "ghost" in found[0].message


class TestFindingCodec:
    def test_round_trip(self):
        finding = Finding(code="comb-loop", severity="error",
                          message="loop through a -> b", path="top.u0.a",
                          line=12)
        assert finding_from_dict(finding_to_dict(finding)) == finding

    def test_legacy_defaults(self):
        finding = finding_from_dict({"code": "x-prop"})
        assert finding.severity == "warning"
        assert finding.path == "" and finding.line == 0

    def test_str_format(self):
        finding = Finding(code="undriven", severity="warning",
                          message="no driver", path="top.mid", line=3)
        text = str(finding)
        assert "[undriven]" in text and "top.mid" in text
        assert text.startswith("line 3")

    def test_error_findings_filters(self):
        items = [
            Finding(code="comb-loop", severity="error", message="m"),
            Finding(code="x-prop", severity="warning", message="m"),
        ]
        assert [f.code for f in error_findings(items)] == ["comb-loop"]


class TestEntryPoints:
    def test_infer_top_picks_uninstantiated(self):
        unit = parse("""
        module leaf(input x, output y); assign y = x; endmodule
        module root(input a, output b);
          leaf l(.x(a), .y(b));
        endmodule
        """)
        assert infer_top(unit) == "root"

    def test_analyze_source_parse_failure(self):
        report, findings = analyze_source("module m(; endmodule")
        assert not report.ok and findings == []

    def test_check_design_raises_on_error(self):
        report = compile_design("""
        module m(input a, output y);
          wire b;
          assign b = y | a;
          assign y = b & a;
        endmodule
        """)
        assert report.ok
        with pytest.raises(AnalysisError) as info:
            check_design(report.design, report.unit)
        assert info.value.code == "comb-loop"
        assert info.value.path


class TestGoldenReferences:
    """Golden regression: the 17 canonical reference models are clean.

    High-severity cleanliness is the hard assertion (references must
    never trip the gate); the full per-problem snapshot keeps *any*
    drift visible — today every reference analyzes clean, so the
    snapshot is empty everywhere.
    """

    GOLDEN_FINDINGS = {problem.slug: [] for problem in ALL_PROBLEMS}

    def test_references_have_no_error_findings(self):
        for problem in ALL_PROBLEMS:
            report, findings = analyze_source(
                problem.canonical_source(), top=problem.module_name
            )
            assert report.ok, (problem.slug, report.errors)
            assert not error_findings(findings), (problem.slug, findings)

    def test_inferred_top_parses_once(self, monkeypatch):
        import repro.verilog.compile as compile_module

        parsed = []
        original = compile_module.parse

        def counting_parse(source, first_line=1, prefix=None):
            parsed.append(source)
            return original(source, first_line, prefix=prefix)

        for problem in ALL_PROBLEMS:
            source = problem.canonical_source()
            top = infer_top(parse(source))
            expected = compile_design(source, top=top)
            monkeypatch.setattr(compile_module, "parse", counting_parse)
            parsed.clear()
            report, findings = analyze_source(source)
            monkeypatch.undo()
            assert parsed == [source]
            assert report.ok and report.design.top == expected.design.top
            assert (report.unit, report.errors, report.stage,
                    report.line) == (expected.unit, expected.errors,
                                     expected.stage, expected.line)
            assert findings == analyze_source(source, top=top)[1]

    def test_reference_finding_snapshot(self):
        snapshot = {}
        for problem in ALL_PROBLEMS:
            _, findings = analyze_source(
                problem.canonical_source(), top=problem.module_name
            )
            snapshot[problem.slug] = [finding_to_dict(f) for f in findings]
        assert snapshot == self.GOLDEN_FINDINGS

    def test_all_problems_covered(self):
        assert len(self.GOLDEN_FINDINGS) == 17
