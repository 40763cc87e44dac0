"""The analysis gate in the eval pipeline + the corpus analyze runner."""

import pytest

from repro.eval import (
    AnalysisTarget,
    Evaluator,
    analysis_report_to_dict,
    analyze_targets,
    corpus_summary,
    evaluation_from_dict,
    evaluation_to_dict,
    render_analysis_report,
    targets_from_problems,
)
from repro.eval.export import error_from_dict, error_to_dict
from repro.eval.jobs import GenerationJob, JobFailure, make_job_error
from repro.problems import ALL_PROBLEMS, PromptLevel

SIMPLE_WIRE = ALL_PROBLEMS[0]

#: completion for ``module simple_wire(input in, output out)`` with a
#: combinational cycle through ``loop``; the cycle settles at ``x`` in
#: 4-state simulation, so the unanalyzed pipeline fails the bench too
#: (the parity the gate promises)
LOOP_COMPLETION = """
  wire loop;
  assign out = ~loop;
  assign loop = out;
endmodule
"""

CLEAN_COMPLETION = """
  assign out = in;
endmodule
"""


class TestAnalysisGate:
    def test_comb_loop_rejected_at_analysis_stage(self):
        verdict = Evaluator().evaluate(SIMPLE_WIRE, LOOP_COMPLETION)
        assert verdict.compiled and not verdict.passed
        assert verdict.stage == "analysis"
        assert any(f.code == "comb-loop" for f in verdict.findings)
        assert verdict.compile_errors  # stringified gate findings

    def test_clean_completion_unaffected(self):
        verdict = Evaluator().evaluate(SIMPLE_WIRE, CLEAN_COMPLETION)
        assert verdict.passed and verdict.stage == ""
        assert verdict.findings == ()

    def test_analysis_off_matches_verdict_booleans(self):
        # parity invariant: the gate only flips designs simulation
        # would fail anyway (here: the sim hits its iteration limit)
        gated = Evaluator().evaluate(SIMPLE_WIRE, LOOP_COMPLETION)
        ungated = Evaluator(analysis=False, max_steps=2_000).evaluate(
            SIMPLE_WIRE, LOOP_COMPLETION
        )
        assert (gated.compiled, gated.passed) == (
            ungated.compiled, ungated.passed,
        )
        assert ungated.stage != "analysis"

    def test_job_error_carries_code_and_path(self):
        job = GenerationJob(
            model="m", base_model="m", fine_tuned=False,
            problem=SIMPLE_WIRE.number, level=PromptLevel.LOW,
            temperature=0.1, n=1, max_tokens=100,
        )
        failure = JobFailure(
            message="AnalysisError: combinational loop", stage="analysis",
            exception="AnalysisError", line=3, code="comb-loop",
            path="dut.loop",
        )
        error = make_job_error(job, failure, 1)
        assert (error.stage, error.code, error.path) == (
            "analysis", "comb-loop", "dut.loop")
        assert error_from_dict(error_to_dict(error)) == error


class TestEvaluationCodec:
    def test_round_trip_with_findings(self):
        verdict = Evaluator().evaluate(SIMPLE_WIRE, LOOP_COMPLETION)
        assert verdict.findings
        assert evaluation_from_dict(evaluation_to_dict(verdict)) == verdict

    def test_legacy_rows_load_without_findings(self):
        row = {"compiled": True, "passed": False, "stage": "testbench"}
        verdict = evaluation_from_dict(row)
        assert verdict.findings == ()


class TestFeedback:
    def test_analysis_stage_headline_and_findings(self):
        from repro.agentic.feedback import format_feedback

        verdict = Evaluator().evaluate(SIMPLE_WIRE, LOOP_COMPLETION)
        text = format_feedback(verdict, round_index=1)
        assert "static analysis" in text
        assert "comb-loop" in text
        assert all(line.startswith("//") for line in text.splitlines())


class TestCorpusRunner:
    def make_targets(self):
        return [
            AnalysisTarget(
                name="clean",
                source=SIMPLE_WIRE.full_source(CLEAN_COMPLETION),
                top="simple_wire",
            ),
            AnalysisTarget(
                name="loop",
                source=SIMPLE_WIRE.full_source(LOOP_COMPLETION),
                top="simple_wire",
            ),
            AnalysisTarget(name="broken", source="module m(; endmodule"),
        ]

    def test_reports_preserve_input_order(self):
        def key(reports):
            return [
                (r.name, r.compiled, r.stage, r.errors, r.findings)
                for r in reports
            ]

        serial = analyze_targets(self.make_targets(), workers=1)
        fanned = analyze_targets(self.make_targets(), workers=4)
        assert key(serial) == key(fanned)  # seconds is wall time, varies
        assert [r.name for r in serial] == ["clean", "loop", "broken"]

    def test_summary_counts(self):
        reports = analyze_targets(self.make_targets())
        summary = corpus_summary(reports)
        assert summary["targets"] == 3
        assert summary["compile_failures"] == 1
        assert summary["gated"] == 1
        assert summary["clean"] == 1
        assert summary["findings_by_code"].get("comb-loop") == 1

    def test_report_dict_and_render(self):
        reports = analyze_targets(self.make_targets())
        payload = analysis_report_to_dict(reports)
        assert [t["name"] for t in payload["targets"]] == [
            "clean", "loop", "broken",
        ]
        text = render_analysis_report(reports)
        assert "comb-loop" in text and "-- loop" in text
        assert "-- clean" not in text  # clean targets stay out of the way

    def test_problem_targets_cover_the_set(self):
        targets = targets_from_problems(ALL_PROBLEMS)
        assert len(targets) == len(ALL_PROBLEMS)
        reports = analyze_targets(targets, workers=4)
        assert all(r.compiled and not r.error_findings for r in reports)

    def test_traced_corpus_emits_one_analysis_span_per_target(self):
        from repro.obs import add_sink, remove_sink

        frames = []
        add_sink(frames.append)
        try:
            analyze_targets(self.make_targets())
        finally:
            remove_sink(frames.append)
        spans = [f for f in frames if f["type"] == "span"]
        assert [s["name"] for s in spans] == ["analysis"] * 3
        by_target = {s["tags"]["target"]: s["tags"] for s in spans}
        assert by_target["clean"]["outcome"] == "clean"
        assert by_target["loop"]["outcome"] == "findings"
        assert by_target["loop"]["findings"] >= 1
        assert by_target["broken"]["outcome"] == "parse"
