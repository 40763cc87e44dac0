"""Integration tests for the 17-problem benchmark set (repro.problems).

These are the core correctness guarantees of the reproduction:
* the set matches the paper's Table II (count, difficulty split, topics);
* every canonical solution compiles and passes its test bench at every
  prompt level;
* every wrong variant compiles but fails its test bench;
* every syntax mutator produces code the compile gate rejects.
"""

import random

import pytest

from repro.models.mutations import SYNTAX_MUTATORS
from repro.problems import (
    ALL_PROBLEMS,
    DIFFICULTY_COUNTS,
    Difficulty,
    PASS_MARKER,
    PromptLevel,
    get_problem,
    problems_by_difficulty,
)
from repro.verilog import compile_design, run_simulation
from repro.verilog.lexer import tokenize


class TestTable2Shape:
    def test_seventeen_problems(self):
        assert len(ALL_PROBLEMS) == 17

    def test_numbers_are_1_to_17(self):
        assert [p.number for p in ALL_PROBLEMS] == list(range(1, 18))

    def test_difficulty_split_matches_paper(self):
        for difficulty, count in DIFFICULTY_COUNTS.items():
            assert len(problems_by_difficulty(difficulty)) == count

    def test_basic_problems_are_1_to_4(self):
        assert [p.number for p in problems_by_difficulty(Difficulty.BASIC)] == [
            1, 2, 3, 4,
        ]

    def test_advanced_problems_are_13_to_17(self):
        numbers = [p.number for p in problems_by_difficulty(Difficulty.ADVANCED)]
        assert numbers == [13, 14, 15, 16, 17]

    def test_lookup_by_number_and_slug(self):
        assert get_problem(6).slug == "counter_1_to_12"
        assert get_problem("abro").number == 17
        with pytest.raises(KeyError):
            get_problem(99)
        with pytest.raises(KeyError):
            get_problem("nope")

    def test_unique_module_names(self):
        names = [p.module_name for p in ALL_PROBLEMS]
        assert len(set(names)) == len(names)

    def test_every_problem_has_wrong_variants(self):
        for problem in ALL_PROBLEMS:
            assert problem.wrong_variants, problem.slug


class TestPrompts:
    def test_three_levels_each(self):
        for problem in ALL_PROBLEMS:
            assert set(problem.prompts) == set(PromptLevel)

    def test_levels_strictly_increase_in_detail(self):
        for problem in ALL_PROBLEMS:
            low = problem.prompt(PromptLevel.LOW)
            medium = problem.prompt(PromptLevel.MEDIUM)
            high = problem.prompt(PromptLevel.HIGH)
            assert len(low) < len(medium) < len(high), problem.slug

    def test_medium_extends_low_and_high_extends_medium(self):
        for problem in ALL_PROBLEMS:
            low = problem.prompt(PromptLevel.LOW)
            medium = problem.prompt(PromptLevel.MEDIUM)
            high = problem.prompt(PromptLevel.HIGH)
            assert medium.startswith(low), problem.slug
            assert high.startswith(medium), problem.slug
            # comments and blank lines only, so a verdict is the same at
            # every level and only the lines past the LOW prompt move
            for added in (medium[len(low):], high[len(medium):]):
                assert [token.kind for token in tokenize(added)] == [
                    "EOF"], (problem.slug, added)

    def test_prompt_contains_module_header(self):
        for problem in ALL_PROBLEMS:
            assert f"module {problem.module_name}" in problem.prompt(
                PromptLevel.LOW
            ), problem.slug

    def test_prompt_alone_does_not_compile(self):
        # the prompt ends mid-module; only prompt+completion parses
        for problem in ALL_PROBLEMS:
            report = compile_design(problem.prompt(PromptLevel.LOW))
            assert not report.ok, problem.slug


@pytest.mark.parametrize("problem", ALL_PROBLEMS, ids=lambda p: p.slug)
class TestCanonicalSolutions:
    def test_canonical_compiles(self, problem):
        report = compile_design(
            problem.canonical_source(), top=problem.module_name
        )
        assert report.ok, report.errors

    @pytest.mark.parametrize("level", list(PromptLevel), ids=str)
    def test_canonical_passes_testbench(self, problem, level):
        source = problem.bench_source(problem.canonical_body, level)
        report, result = run_simulation(source, top="tb")
        assert report.ok, report.errors
        assert result is not None
        assert result.finished, "test bench must reach $finish"
        assert PASS_MARKER in result.text, result.text
        assert "FAIL" not in result.text


@pytest.mark.parametrize(
    "problem,variant",
    [(p, wv) for p in ALL_PROBLEMS for wv in p.wrong_variants],
    ids=lambda x: getattr(x, "slug", None) or getattr(x, "name", None),
)
class TestWrongVariants:
    def test_variant_compiles(self, problem, variant):
        report = compile_design(
            problem.full_source(variant.body), top=problem.module_name
        )
        assert report.ok, (problem.slug, variant.name, report.errors)

    def test_variant_fails_testbench(self, problem, variant):
        source = problem.bench_source(variant.body)
        report, result = run_simulation(source, top="tb")
        assert report.ok
        if result is None:
            return  # died at runtime: certainly not a pass
        assert PASS_MARKER not in result.text, (problem.slug, variant.name)


@pytest.mark.parametrize("mutator", SYNTAX_MUTATORS, ids=lambda m: m.__name__)
def test_every_syntax_mutator_breaks_every_problem(mutator):
    rng = random.Random(1234)
    for problem in ALL_PROBLEMS:
        for _ in range(2):
            broken = mutator(problem.canonical_body, rng)
            source = problem.full_source(broken)
            report = compile_design(source, top=None)
            assert not report.ok, (problem.slug, mutator.__name__, broken)


class TestSourceAssembly:
    def test_full_source_strips_redundant_whitespace(self):
        problem = get_problem(1)
        source = problem.full_source("  assign out = in;\nendmodule\n\n\n")
        assert source.endswith("endmodule\n")

    def test_bench_source_contains_both_modules(self):
        problem = get_problem(2)
        bench = problem.bench_source(problem.canonical_body)
        assert "module and_gate" in bench
        assert "module tb" in bench

    def test_str_mentions_number_and_difficulty(self):
        text = str(get_problem(13))
        assert "13" in text
        assert "advanced" in text
