"""Tests for VCD dumping, prompt engineering and sweep analysis."""

import pytest

from repro.api import Session
from repro.backends import LocalZooBackend
from repro.eval import (
    Evaluator,
    PROBLEM_HINTS,
    SweepConfig,
    bootstrap_interval,
    engineered_prompt,
    has_hint,
    hint_coverage,
    hint_for,
    model_comparison,
    pass_at_k_curve,
    scenario_pass_at_k,
)
from repro.models import GenerationConfig, make_model
from repro.problems import PromptLevel, get_problem
from repro.verilog import run_simulation
from repro.verilog.vcd import VcdRecorder, _id_code
from repro.verilog.values import Vec


class TestVcdRecorder:
    def test_id_codes_unique(self):
        codes = {_id_code(i) for i in range(500)}
        assert len(codes) == 500

    def test_register_and_text(self):
        recorder = VcdRecorder()
        code = recorder.register(1, "clk", 1, Vec.from_int(0, 1))
        recorder.record(5, Vec.from_int(1, 1), code)
        text = recorder.text("tb")
        assert "$var wire 1" in text
        assert "#5" in text
        assert f"1{code}" in text

    def test_multibit_format(self):
        recorder = VcdRecorder()
        code = recorder.register(2, "bus", 4, Vec.unknown(4))
        recorder.record(1, Vec.from_int(5, 4), code)
        assert f"b0101 {code}" in recorder.text()

    def test_write_file(self, tmp_path):
        recorder = VcdRecorder()
        recorder.register(3, "x", 1, Vec.from_int(0, 1))
        path = tmp_path / "wave.vcd"
        recorder.write(str(path))
        assert "$enddefinitions" in path.read_text()

    def test_hierarchical_names_sanitized(self):
        recorder = VcdRecorder()
        recorder.register(4, "dut.q", 4, Vec.unknown(4))
        assert "dut_q" in recorder.text()


class TestVcdInSimulation:
    SOURCE = """
    module tb; reg clk; reg [3:0] q;
      initial begin
        $dumpfile("out.vcd");
        $dumpvars;
        clk = 0; q = 0;
        repeat (3) begin #5 clk = ~clk; q = q + 1; end
        $finish;
      end
    endmodule
    """

    def test_dump_recorded(self):
        report, result = run_simulation(self.SOURCE, top="tb")
        assert report.ok and result.finished
        assert result.vcd is not None
        assert result.vcd_file == "out.vcd"
        assert result.vcd.change_count >= 6  # clk + q, 3 times each

    def test_vcd_text_is_valid_shape(self):
        _, result = run_simulation(self.SOURCE, top="tb")
        text = result.vcd.text("tb")
        assert text.index("$enddefinitions") < text.index("$dumpvars")
        assert "#5" in text and "#15" in text

    def test_no_dumpvars_no_recorder(self):
        source = "module tb; initial $finish; endmodule"
        _, result = run_simulation(source, top="tb")
        assert result.vcd is None

    def test_hierarchy_signals_included(self):
        source = """
        module child(input i, output o); assign o = ~i; endmodule
        module tb; reg a; wire b;
          child c(.i(a), .o(b));
          initial begin $dumpvars; a = 0; #1 a = 1; #1 $finish; end
        endmodule
        """
        _, result = run_simulation(source, top="tb")
        assert "c_i" in result.vcd.text()


class TestPromptEngineering:
    def test_hint_marker_detection(self):
        assert has_hint("// hint: do better")
        assert not has_hint("// just a comment")

    def test_targeted_hints_for_hard_problems(self):
        assert set(PROBLEM_HINTS) == {7, 9, 12}
        coverage = hint_coverage()
        assert coverage[7] and coverage[12]
        assert not coverage[1]

    def test_engineered_prompt_appends_hint(self):
        problem = get_problem(7)
        prompt = engineered_prompt(problem, PromptLevel.HIGH)
        assert prompt.startswith(problem.prompt(PromptLevel.HIGH).rstrip("\n"))
        assert has_hint(prompt)

    def test_generic_hint_for_easy_problem(self):
        assert "step by step" in hint_for(get_problem(1))

    def test_hint_lifts_hard_problem(self):
        model = make_model("codegen-16b", fine_tuned=True)
        evaluator = Evaluator()
        problem = get_problem(7)
        config = GenerationConfig(temperature=0.1, n=40)
        plain = sum(
            evaluator.evaluate(problem, c.text).passed
            for c in model.generate(problem.prompt(PromptLevel.HIGH), config)
        )
        hinted = sum(
            evaluator.evaluate(problem, c.text).passed
            for c in model.generate(
                engineered_prompt(problem, PromptLevel.HIGH), config
            )
        )
        assert plain == 0
        assert hinted > 0

    def test_hint_does_not_break_level_detection(self):
        from repro.models import match_prompt_to_problem

        problem = get_problem(12)
        matched = match_prompt_to_problem(
            engineered_prompt(problem, PromptLevel.MEDIUM)
        )
        assert matched is not None
        assert matched[0].number == 12
        assert matched[1] == PromptLevel.MEDIUM


@pytest.fixture(scope="module")
def small_sweep():
    models = [
        make_model("codegen-16b", fine_tuned=True),
        make_model("megatron-355m", fine_tuned=True),
    ]
    config = SweepConfig(
        temperatures=(0.1,),
        completions_per_prompt=(10,),
        problem_numbers=(1, 2, 3, 4),
    )
    session = Session(backend=LocalZooBackend(models), evaluator=Evaluator())
    return session.run_sweep(config).sweep


class TestAnalysis:
    def test_pass_at_k_curve_monotone(self, small_sweep):
        curve = pass_at_k_curve(
            small_sweep, "codegen-16b-ft", 1, PromptLevel.LOW, 0.1
        )
        values = [curve[k] for k in sorted(curve)]
        assert values == sorted(values)
        assert 0.0 <= values[0] <= values[-1] <= 1.0

    def test_pass_at_k_curve_empty_for_unknown(self, small_sweep):
        assert pass_at_k_curve(small_sweep, "ghost", 1, PromptLevel.LOW, 0.1) == {}

    def test_scenario_pass_at_k(self, small_sweep):
        at_1 = scenario_pass_at_k(small_sweep, "codegen-16b-ft", k=1)
        at_10 = scenario_pass_at_k(small_sweep, "codegen-16b-ft", k=10)
        assert 0.0 <= at_1 <= at_10 <= 1.0

    def test_bootstrap_interval_contains_point(self):
        interval = bootstrap_interval([True] * 30 + [False] * 10)
        assert interval.point == pytest.approx(0.75)
        assert interval.point in interval
        assert interval.low < interval.high

    def test_bootstrap_empty(self):
        interval = bootstrap_interval([])
        assert interval.point == 0.0

    def test_bootstrap_deterministic(self):
        a = bootstrap_interval([True, False] * 20, seed=5)
        b = bootstrap_interval([True, False] * 20, seed=5)
        assert (a.low, a.high) == (b.low, b.high)

    def test_model_comparison_decisive(self, small_sweep):
        win = model_comparison(
            small_sweep, "codegen-16b-ft", "megatron-355m-ft",
            resamples=400,
        )
        assert win > 0.9

    def test_model_comparison_requires_records(self, small_sweep):
        with pytest.raises(ValueError):
            model_comparison(small_sweep, "codegen-16b-ft", "ghost")
