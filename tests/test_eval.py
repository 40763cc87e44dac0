"""Tests for the evaluation framework (repro.eval)."""

import pytest
from hypothesis import given, strategies as st

from repro.api import Session
from repro.backends import LocalZooBackend
from repro.eval import (
    Evaluator,
    Sweep,
    SweepConfig,
    VerdictStore,
    has_endmodule,
    mean,
    pass_at_k,
    pass_fraction,
    truncate_completion,
)
from repro.eval.harness import CompletionRecord
from repro.models import GenerationConfig, make_model
from repro.problems import Difficulty, PromptLevel, get_problem


class TestTruncation:
    def test_keeps_through_first_endmodule(self):
        text = "assign a = b;\nendmodule\n// trailing prose\nmodule junk; endmodule"
        out = truncate_completion(text)
        assert out.endswith("endmodule")
        assert "junk" not in out

    def test_no_endmodule_unchanged(self):
        text = "assign a = b;\n// never closed"
        assert truncate_completion(text) == text

    def test_endmodule_inside_identifier_not_matched(self):
        text = "wire endmodule_like;\nendmodule"
        out = truncate_completion(text)
        assert out.endswith("endmodule")
        assert "endmodule_like" in out

    def test_has_endmodule(self):
        assert has_endmodule("x endmodule")
        assert not has_endmodule("xendmodule")

    @given(st.text(max_size=300))
    def test_prop_truncation_is_idempotent(self, text):
        once = truncate_completion(text)
        assert truncate_completion(once) == once

    @given(st.text(max_size=300))
    def test_prop_truncation_is_prefix(self, text):
        assert text.startswith(truncate_completion(text))

    # texts dense in near-misses: "endmodule" glued to word characters of
    # every Unicode kind \w covers (letters, digits, numerics, "_")
    _FRAGMENTS = st.lists(
        st.one_of(
            st.sampled_from([
                "endmodule", "endmodul", "ndmodule", "e", "_", "x", "9",
                "\u00e9", "\u0663", "\u00b2", "\u216b", " ", "\n", ";",
                "$", "\u00a0", "endmoduleendmodule",
            ]),
            st.text(max_size=4),
        ),
        max_size=12,
    ).map("".join)

    @given(st.one_of(_FRAGMENTS, st.text(max_size=300)))
    def test_prop_matches_the_word_boundary_regex(self, text):
        import re

        reference = re.compile(r"\bendmodule\b").search(text)
        expected = text if reference is None else text[: reference.end()]
        assert truncate_completion(text) == expected
        assert has_endmodule(text) == (reference is not None)


class TestMetrics:
    def test_pass_fraction(self):
        assert pass_fraction([True, False, True, True]) == 0.75
        assert pass_fraction([]) == 0.0

    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        assert mean([]) == 0.0

    def test_pass_at_k_exact_cases(self):
        assert pass_at_k(10, 0, 5) == 0.0
        assert pass_at_k(10, 10, 1) == 1.0
        assert pass_at_k(2, 1, 1) == pytest.approx(0.5)

    def test_pass_at_k_bounds_errors(self):
        with pytest.raises(ValueError):
            pass_at_k(5, 6, 1)
        with pytest.raises(ValueError):
            pass_at_k(5, 1, 0)
        with pytest.raises(ValueError):
            pass_at_k(5, 1, 6)

    @given(
        n=st.integers(min_value=1, max_value=50),
        c=st.integers(min_value=0, max_value=50),
        k=st.integers(min_value=1, max_value=50),
    )
    def test_prop_pass_at_k_in_unit_interval(self, n, c, k):
        if c > n or k > n:
            return
        value = pass_at_k(n, c, k)
        assert 0.0 <= value <= 1.0

    @given(n=st.integers(min_value=2, max_value=30),
           c=st.integers(min_value=0, max_value=30))
    def test_prop_pass_at_k_monotone_in_k(self, n, c):
        if c > n:
            return
        values = [pass_at_k(n, c, k) for k in range(1, n + 1)]
        assert values == sorted(values)


class TestEvaluator:
    def test_canonical_passes(self):
        problem = get_problem(2)
        outcome = Evaluator().evaluate(problem, problem.canonical_body)
        assert outcome.compiled and outcome.passed
        assert outcome.verdict == "pass"

    def test_wrong_variant_fails(self):
        problem = get_problem(2)
        outcome = Evaluator().evaluate(problem, problem.wrong_variants[0].body)
        assert outcome.compiled and not outcome.passed
        assert outcome.verdict == "test-fail"

    def test_garbage_does_not_compile(self):
        problem = get_problem(2)
        outcome = Evaluator().evaluate(problem, "q;;; garbage $$")
        assert not outcome.compiled
        assert outcome.verdict == "compile-error"
        assert outcome.compile_errors

    def test_trailing_junk_truncated_before_compile(self):
        problem = get_problem(1)
        text = problem.canonical_body + "\nthis is not verilog at all"
        outcome = Evaluator().evaluate(problem, text)
        assert outcome.compiled and outcome.passed

    def test_cache_hits_on_repeat(self):
        evaluator = Evaluator()
        problem = get_problem(1)
        evaluator.evaluate(problem, problem.canonical_body)
        evaluator.evaluate(problem, problem.canonical_body)
        assert evaluator.cache_info["hits"] == 1
        assert evaluator.cache_info["misses"] == 1

    def test_cache_distinguishes_problems(self):
        evaluator = Evaluator()
        evaluator.evaluate(get_problem(1), "assign out = in;\nendmodule")
        evaluator.evaluate(get_problem(2), "assign out = a & b;\nendmodule")
        assert evaluator.cache_info["misses"] == 2

    @pytest.mark.parametrize("literal", [
        "9" * 5000,
        "5000'd" + "9" * 5000,
        "9" * 5000 + "'d1",
    ], ids=["decimal", "sized-decimal-digits", "size"])
    def test_over_long_literal_is_a_parse_error(self, literal):
        problem = get_problem(1)
        completion = f"assign out = {literal};"
        outcome = Evaluator().evaluate(problem, completion)
        assert outcome.verdict == "compile-error"
        assert outcome.stage == "parse"
        assert outcome.error_line == len(
            problem.full_source(completion).splitlines())

    def test_level_does_not_change_verdict(self):
        problem = get_problem(3)
        evaluator = Evaluator()
        verdicts = {
            evaluator.evaluate(problem, problem.canonical_body, level).passed
            for level in PromptLevel
        }
        assert verdicts == {True}


#: (problem, body, text on the line every reported line must point at):
#: a parse error, an analysis-stage error finding, an advisory finding
#: on a passing design and a runtime error inside the test bench
_LINE_CASES = [
    (1, "assign out = 1'b1 +;", "1'b1 +"),
    (1, "wire a, b;\nassign a = b;\nassign b = a;\nassign out = a;\n"
        "endmodule", "assign a = b;"),
    (1, "wire t;\nassign t = in;\nassign out = in;\nendmodule", "assign t = in;"),
    (1, "assign out = in;\ninitial begin\n  while (1) begin end\nend\n"
        "endmodule", "begin end"),
]


class TestLevelLineNumbers:
    """The cache key leaves the prompt level out, but every level must
    get the line numbers of its own ``full_source``."""

    @staticmethod
    def _lines(outcome):
        lines = {f.line for f in outcome.findings}
        lines |= {int(error.split("line ")[1].split(":")[0])
                  for error in outcome.compile_errors}
        if outcome.error_line:
            lines.add(outcome.error_line)
        return lines

    @pytest.mark.parametrize("number,body,marker", _LINE_CASES,
                             ids=["parse", "analysis", "finding", "sim"])
    def test_each_level_gets_its_own_lines(self, number, body, marker):
        problem = get_problem(number)
        fresh = {level: Evaluator().evaluate(problem, body, level)
                 for level in PromptLevel}
        for level, outcome in fresh.items():
            source = problem.full_source(body, level).splitlines()
            expected = 1 + next(i for i, line in enumerate(source)
                                if marker in line)
            assert self._lines(outcome) == {expected}
        assert fresh[PromptLevel.LOW] != fresh[PromptLevel.HIGH]
        orders = [(PromptLevel.LOW, PromptLevel.HIGH),
                  (PromptLevel.HIGH, PromptLevel.LOW),
                  (PromptLevel.MEDIUM, PromptLevel.HIGH, PromptLevel.LOW)]
        for order in orders:
            evaluator = Evaluator()
            for level in order + order:
                assert evaluator.evaluate(problem, body, level) == \
                    fresh[level], (order, level)

    @pytest.mark.parametrize("number,body,marker", _LINE_CASES,
                             ids=["parse", "analysis", "finding", "sim"])
    def test_warm_store_shifts_per_level(self, number, body, marker,
                                         tmp_path):
        problem = get_problem(number)
        fresh = {level: Evaluator().evaluate(problem, body, level)
                 for level in PromptLevel}
        for first, second in [(PromptLevel.LOW, PromptLevel.HIGH),
                              (PromptLevel.HIGH, PromptLevel.LOW)]:
            store = VerdictStore(str(tmp_path / f"{first.name}-first"))
            writer = Evaluator(store=store)
            assert writer.evaluate(problem, body, first) == fresh[first]
            reader = Evaluator(store=store)
            assert reader.evaluate(problem, body, second) == fresh[second]
            assert reader.store_hits == 1


def _record(**kw):
    base = dict(
        model="m-ft", base_model="m", fine_tuned=True, problem=1,
        difficulty=Difficulty.BASIC, level=PromptLevel.LOW, temperature=0.1,
        n=10, sample_index=0, compiled=True, passed=True,
        inference_seconds=1.0,
    )
    base.update(kw)
    return CompletionRecord(**base)


class TestSweepSlicing:
    def test_filter_by_fields(self):
        sweep = Sweep(records=[
            _record(problem=1), _record(problem=2, passed=False),
            _record(model="x-pt", base_model="x", fine_tuned=False),
        ])
        assert len(sweep.filter(model="m-ft")) == 2
        assert len(sweep.filter(fine_tuned=False)) == 1
        assert len(sweep.filter(problem=2)) == 1

    def test_rate_metrics(self):
        records = [_record(passed=True), _record(passed=False, compiled=True)]
        assert Sweep.rate(records, "passed") == 0.5
        assert Sweep.rate(records, "compiled") == 1.0
        with pytest.raises(ValueError):
            Sweep.rate(records, "velocity")

    def test_best_temperature_selects_max(self):
        records = []
        for t, good in ((0.1, 8), (0.5, 3)):
            for i in range(10):
                records.append(
                    _record(temperature=t, sample_index=i, passed=i < good)
                )
        sweep = Sweep(records=records)
        best_t, rate = sweep.best_temperature(
            "m-ft", Difficulty.BASIC, PromptLevel.LOW, 10
        )
        assert best_t == 0.1
        assert rate == 0.8

    def test_best_temperature_empty(self):
        sweep = Sweep()
        assert sweep.best_temperature("x", Difficulty.BASIC, None, 10) == (0.0, 0.0)

    def test_mean_inference_seconds(self):
        sweep = Sweep(records=[
            _record(inference_seconds=1.0), _record(inference_seconds=3.0),
        ])
        assert sweep.mean_inference_seconds("m-ft") == 2.0


def _sweep(model, config):
    return Session(backend=LocalZooBackend([model])).run_sweep(config).sweep


class TestRunSweep:
    def test_small_sweep_shape(self):
        model = make_model("codegen-6b", fine_tuned=True)
        config = SweepConfig(
            temperatures=(0.1, 0.5),
            completions_per_prompt=(4,),
            levels=(PromptLevel.LOW,),
            problem_numbers=(1, 2),
        )
        sweep = _sweep(model, config)
        # 1 model x 2 problems x 1 level x 2 temps x 4 completions
        assert len(sweep) == 16
        assert sweep.temperatures() == [0.1, 0.5]
        assert sweep.model_names() == ["codegen-6b-ft"]

    def test_sweep_skips_unsupported_n(self):
        model = make_model("j1-large-7b", fine_tuned=True)
        config = SweepConfig(
            temperatures=(0.1,),
            completions_per_prompt=(1, 25),
            levels=(PromptLevel.LOW,),
            problem_numbers=(1,),
        )
        sweep = _sweep(model, config)
        assert {r.n for r in sweep.records} == {1}

    def test_sweep_is_deterministic(self):
        model = make_model("codegen-2b", fine_tuned=True)
        config = SweepConfig(
            temperatures=(0.1,), completions_per_prompt=(5,),
            levels=(PromptLevel.MEDIUM,), problem_numbers=(3,),
        )
        a = _sweep(model, config)
        b = _sweep(model, config)
        assert [(r.compiled, r.passed) for r in a.records] == [
            (r.compiled, r.passed) for r in b.records
        ]

    def test_records_carry_difficulty(self):
        model = make_model("codegen-2b")
        config = SweepConfig(
            temperatures=(0.1,), completions_per_prompt=(2,),
            levels=(PromptLevel.LOW,), problem_numbers=(13,),
        )
        sweep = _sweep(model, config)
        assert all(r.difficulty == Difficulty.ADVANCED for r in sweep.records)


class TestExport:
    @pytest.fixture()
    def tiny_sweep(self):
        model = make_model("codegen-6b", fine_tuned=True)
        config = SweepConfig(
            temperatures=(0.1,), completions_per_prompt=(3,),
            levels=(PromptLevel.LOW,), problem_numbers=(1, 2),
        )
        return _sweep(model, config)

    def test_csv_shape(self, tiny_sweep):
        from repro.eval import sweep_to_csv

        text = sweep_to_csv(tiny_sweep)
        lines = text.strip().splitlines()
        assert lines[0].startswith("model,base_model,fine_tuned")
        assert len(lines) == 1 + len(tiny_sweep)

    def test_json_round_trip(self, tiny_sweep):
        from repro.eval import load_sweep_json, sweep_to_json

        clone = load_sweep_json(sweep_to_json(tiny_sweep))
        assert len(clone) == len(tiny_sweep)
        original, restored = tiny_sweep.records[0], clone.records[0]
        assert (restored.model, restored.problem, restored.level) == (
            original.model, original.problem, original.level
        )
        assert (restored.compiled, restored.passed) == (
            original.compiled, original.passed
        )
        # inference time is rounded to microseconds on export
        assert restored.inference_seconds == pytest.approx(
            original.inference_seconds, abs=1e-5
        )
        assert Sweep.rate(clone.records) == Sweep.rate(tiny_sweep.records)

    def test_save_csv_and_json(self, tiny_sweep, tmp_path):
        from repro.eval import save_sweep

        csv_path = tmp_path / "sweep.csv"
        json_path = tmp_path / "sweep.json"
        save_sweep(tiny_sweep, str(csv_path))
        save_sweep(tiny_sweep, str(json_path))
        assert csv_path.read_text().count("\n") > 1
        assert json_path.read_text().startswith("[")

    def test_save_unknown_extension(self, tiny_sweep, tmp_path):
        from repro.eval import save_sweep

        with pytest.raises(ValueError):
            save_sweep(tiny_sweep, str(tmp_path / "sweep.parquet"))
