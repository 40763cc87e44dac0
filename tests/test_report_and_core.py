"""Tests for report assembly and the core pipeline facade.

A single reduced-but-real sweep is shared by the whole module (session
cost ~seconds thanks to the evaluation cache).
"""

import pytest

from repro import Session, VGenConfig, VGenPipeline
from repro.backends import LocalZooBackend
from repro.corpus import CorpusConfig
from repro.eval import (
    Evaluator,
    SweepConfig,
    fig6_completions,
    fig6_temperature,
    fig7_difficulty,
    fig7_levels,
    headline_numbers,
    per_problem_pass_counts,
    render_headline,
    render_series,
    render_table3,
    render_table4,
    table3,
    table4,
)
from repro.models import make_model, paper_model_variants
from repro.problems import Difficulty, PromptLevel


@pytest.fixture(scope="module")
def sweep():
    """Reduced sweep: three representative variants, all problems."""
    models = [
        make_model("codegen-16b", fine_tuned=True),
        make_model("codegen-16b"),
        make_model("code-davinci-002"),
    ]
    config = SweepConfig(temperatures=(0.1, 0.5), completions_per_prompt=(10,))
    session = Session(backend=LocalZooBackend(models), evaluator=Evaluator())
    return session.run_sweep(config).sweep


class TestTables:
    def test_table3_keys(self, sweep):
        table = table3(sweep)
        assert ("codegen-16b", True) in table
        assert ("code-davinci-002", False) in table
        for row in table.values():
            assert set(row) == {
                Difficulty.BASIC, Difficulty.INTERMEDIATE, Difficulty.ADVANCED
            }

    def test_table3_ft_beats_pt(self, sweep):
        table = table3(sweep)
        for difficulty in Difficulty:
            assert (
                table[("codegen-16b", True)][difficulty]
                >= table[("codegen-16b", False)][difficulty]
            )

    def test_table3_rates_in_unit_interval(self, sweep):
        for row in table3(sweep).values():
            for rate in row.values():
                assert 0.0 <= rate <= 1.0

    def test_table4_structure(self, sweep):
        table = table4(sweep)
        row = table[("codegen-16b", True)]
        assert row["time"] > 0
        assert set(row[Difficulty.BASIC]) == set(PromptLevel)

    def test_table4_functional_below_compile(self, sweep):
        compile_t = table3(sweep)
        functional_t = table4(sweep)
        for key in functional_t:
            for difficulty in Difficulty:
                func_best = max(functional_t[key][difficulty].values())
                # compile rate is a per-level mean; allow small slack
                assert func_best <= compile_t[key][difficulty] + 0.15

    def test_renderings_mention_paper_reference(self, sweep):
        text3 = render_table3(table3(sweep))
        text4 = render_table4(table4(sweep))
        assert "Table III" in text3
        assert "Table IV" in text4
        assert "(" in text3  # paper reference values present

    def test_render_without_reference(self, sweep):
        text = render_table3(table3(sweep), reference=False)
        assert "(0." not in text


class TestFigures:
    def test_fig6_temperature_decreases(self, sweep):
        series = fig6_temperature(sweep)["codegen-16b-ft"]
        assert series[0.1] > series[0.5]

    def test_fig6_completions_keys(self, sweep):
        series = fig6_completions(sweep)
        assert set(series["codegen-16b-ft"]) == {10}

    def test_fig7_difficulty_monotone_for_good_model(self, sweep):
        series = fig7_difficulty(sweep)["codegen-16b-ft"]
        assert series[Difficulty.BASIC] > series[Difficulty.INTERMEDIATE]
        assert series[Difficulty.BASIC] > series[Difficulty.ADVANCED]

    def test_fig7_levels_all_present(self, sweep):
        series = fig7_levels(sweep)["codegen-16b-ft"]
        assert set(series) == set(PromptLevel)

    def test_render_series(self, sweep):
        text = render_series("Fig 6", fig6_temperature(sweep))
        assert "Fig 6" in text
        assert "codegen-16b-ft" in text


class TestHeadlinesAndFailures:
    def test_headline_fields(self, sweep):
        headline = headline_numbers(sweep)
        assert headline.best_ft_overall > headline.codex_overall * 0.8
        assert 0 <= headline.pt_functional_mean < headline.ft_functional_mean

    def test_render_headline(self, sweep):
        text = render_headline(headline_numbers(sweep))
        assert "paper" in text
        assert "CodeGen-16B FT overall" in text

    def test_per_problem_failures_match_sec6(self, sweep):
        counts = per_problem_pass_counts(sweep, "codegen-16b-ft")
        assert counts[7][0] == 0, "LFSR should never pass (Sec. VI)"
        assert counts[12][0] == 0, "truth table should never pass (Sec. VI)"
        assert counts[9][0] <= counts[6][0], "shift/rotate nearly never passes"
        assert counts[1][0] > 0, "the simple wire does pass"


class TestCorePipeline:
    def test_pipeline_components(self):
        pipeline = VGenPipeline(
            VGenConfig(
                corpus=CorpusConfig(repos=8),
                sweep=SweepConfig(
                    temperatures=(0.1,),
                    completions_per_prompt=(2,),
                    levels=(PromptLevel.LOW,),
                    problem_numbers=(1, 5),
                ),
            )
        )
        corpus = pipeline.build_corpus()
        assert len(corpus.corpus) > 0
        pt_models = pipeline.models(fine_tune=False)
        assert all(not m.fine_tuned for m in pt_models)
        ft_models, reports = pipeline.finetune(["codegen-2b"])
        assert ft_models[0].fine_tuned
        assert reports[0].corpus_files == len(corpus.corpus)
        sweep = pipeline.evaluate(ft_models)
        assert len(sweep) == 2 * 2  # 2 problems x n=2

    def test_full_run_reduced(self):
        pipeline = VGenPipeline(
            VGenConfig(
                corpus=CorpusConfig(repos=6),
                sweep=SweepConfig(
                    temperatures=(0.1,),
                    completions_per_prompt=(2,),
                    levels=(PromptLevel.LOW,),
                    problem_numbers=(1,),
                ),
            )
        )
        result = pipeline.run()
        assert result.table3
        assert result.table4
        assert result.headline is not None
        assert len(result.finetune_reports) == 5

    def test_variants_cover_table(self):
        assert len(paper_model_variants()) == 11
