"""Tests for calibration data, mutations, and the simulated model zoo."""

import random

import pytest

from repro.eval import Evaluator
from repro.models import (
    COMPILE_RATES,
    FUNCTIONAL_RATES,
    GenerationConfig,
    INFERENCE_SECONDS,
    MODEL_SPECS,
    MODEL_TABLE,
    SimulatedLLM,
    break_syntax,
    cosmetic_variant,
    finetune_ngram,
    finetune_transformer,
    finetune_zoo_model,
    make_model,
    match_prompt_to_problem,
    paper_model_variants,
    resolve_rates,
    temperature_factor,
)
from repro.models.calibration import PROBLEM_HARDNESS, hardness_factor
from repro.models.mutations import broken_completion
from repro.corpus import CorpusConfig, build_github_corpus
from repro.problems import (
    ALL_PROBLEMS,
    Difficulty,
    PromptLevel,
    get_problem,
    problems_by_difficulty,
)


class TestModelTable:
    def test_six_models(self):
        assert len(MODEL_TABLE) == 6

    def test_table1_architectures(self):
        spec = MODEL_SPECS["codegen-16b"]
        assert (spec.layers, spec.heads, spec.embed) == (34, 24, 256)
        spec = MODEL_SPECS["megatron-355m"]
        assert (spec.layers, spec.heads, spec.embed) == (24, 16, 64)

    def test_codex_architecture_unknown(self):
        spec = MODEL_SPECS["code-davinci-002"]
        assert spec.layers is None
        assert spec.context_length == 8000

    def test_j1_quirks(self):
        spec = MODEL_SPECS["j1-large-7b"]
        assert not spec.supports_n25
        assert spec.max_tokens == 256

    def test_codex_not_fine_tunable(self):
        assert not MODEL_SPECS["code-davinci-002"].fine_tunable
        with pytest.raises(ValueError):
            make_model("code-davinci-002", fine_tuned=True)


class TestCalibrationData:
    def test_eleven_variants_have_compile_rates(self):
        assert len(COMPILE_RATES) == 11

    def test_functional_never_reported_above_one(self):
        for rates in FUNCTIONAL_RATES.values():
            for by_level in rates.values():
                for rate in by_level.values():
                    assert 0.0 <= rate <= 1.0

    def test_ft_beats_pt_in_aggregate(self):
        # paper RQ2: every fine-tuned model outperforms its pre-trained self
        for name in ("megatron-355m", "codegen-2b", "codegen-6b",
                     "j1-large-7b", "codegen-16b"):
            pt = sum(COMPILE_RATES[(name, False)].values())
            ft = sum(COMPILE_RATES[(name, True)].values())
            assert ft > pt, name

    def test_inference_times_match_table4(self):
        assert INFERENCE_SECONDS[("codegen-16b", True)] == 1.994
        assert INFERENCE_SECONDS[("j1-large-7b", False)] == 7.146

    def test_temperature_factor_peaks_at_best(self):
        assert temperature_factor(0.1) == pytest.approx(1.0)
        assert temperature_factor(0.3) < 1.0
        assert temperature_factor(1.0) < temperature_factor(0.5)

    def test_hardness_preserves_aggregate(self):
        intermediate = [p.number for p in
                        problems_by_difficulty(Difficulty.INTERMEDIATE)]
        factors = [hardness_factor(n, intermediate) for n in intermediate]
        assert sum(factors) / len(factors) == pytest.approx(1.0)

    def test_hard_problems_zeroed(self):
        intermediate = [p.number for p in
                        problems_by_difficulty(Difficulty.INTERMEDIATE)]
        assert hardness_factor(7, intermediate) == 0.0
        assert hardness_factor(12, intermediate) == 0.0
        assert 0 < hardness_factor(9, intermediate) < 0.5

    def test_resolve_rates_coherent(self):
        intermediate = [p.number for p in
                        problems_by_difficulty(Difficulty.INTERMEDIATE)]
        point = resolve_rates(
            "codegen-16b", True, Difficulty.INTERMEDIATE, PromptLevel.MEDIUM,
            problem_number=6, difficulty_problem_numbers=intermediate,
            temperature=0.1, n=10,
        )
        assert point.p_functional <= point.p_compile <= 1.0

    def test_resolve_rates_unknown_model(self):
        with pytest.raises(KeyError):
            resolve_rates(
                "gpt-9", False, Difficulty.BASIC, PromptLevel.LOW,
                1, [1, 2, 3, 4], 0.1, 10,
            )

    def test_textbook_bonus_applies_to_ft_only(self):
        basic = [1, 2, 3, 4]
        common = dict(
            difficulty=Difficulty.BASIC, level=PromptLevel.LOW,
            problem_number=2, difficulty_problem_numbers=basic,
            temperature=0.3, n=10,
        )
        ft_plain = resolve_rates("codegen-16b", True, **common)
        ft_books = resolve_rates(
            "codegen-16b", True, textbook_corpus=True, **common
        )
        assert ft_books.p_functional > ft_plain.p_functional


class TestMutations:
    def test_cosmetic_variant_preserves_compilability(self):
        rng = random.Random(0)
        evaluator = Evaluator()
        problem = get_problem(6)
        for _ in range(10):
            text = cosmetic_variant(problem.canonical_body, rng)
            outcome = evaluator.evaluate(problem, text)
            assert outcome.compiled and outcome.passed

    def test_cosmetic_variants_form_small_set(self):
        rng = random.Random(0)
        problem = get_problem(1)
        variants = {
            cosmetic_variant(problem.canonical_body, rng) for _ in range(200)
        }
        assert len(variants) <= 16

    def test_break_syntax_always_changes_text(self):
        rng = random.Random(0)
        body = get_problem(6).canonical_body
        for _ in range(20):
            assert break_syntax(body, rng) != body

    def test_broken_completion_never_compiles(self):
        rng = random.Random(1)
        evaluator = Evaluator()
        for problem in ALL_PROBLEMS:
            for variant in problem.wrong_variants:
                text = broken_completion(variant.body, rng)
                outcome = evaluator.evaluate(problem, text)
                assert not outcome.compiled, (problem.slug, variant.name, text)


class TestPromptMatching:
    def test_matches_all_problems_and_levels(self):
        for problem in ALL_PROBLEMS:
            for level in PromptLevel:
                matched = match_prompt_to_problem(problem.prompt(level))
                assert matched is not None, (problem.slug, level)
                assert matched[0].number == problem.number
                assert matched[1] == level

    def test_module_word_in_comment_ignored(self):
        prompt = "// This module does things\nmodule truth_table(input x3, input x2, input x1, output f);\n"
        matched = match_prompt_to_problem(prompt)
        assert matched is not None
        assert matched[0].number == 12

    def test_unknown_module_unmatched(self):
        assert match_prompt_to_problem("module mystery(input a);\n") is None

    def test_no_module_header_unmatched(self):
        assert match_prompt_to_problem("just some text") is None


class TestSimulatedLLM:
    def test_names_encode_variant(self):
        assert make_model("codegen-2b").name == "codegen-2b-pt"
        assert make_model("codegen-2b", fine_tuned=True).name == "codegen-2b-ft"
        books = make_model("codegen-2b", fine_tuned=True, textbook_corpus=True)
        assert books.name == "codegen-2b-ft-books"

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            make_model("gpt-4")

    def test_generation_deterministic(self):
        model = make_model("codegen-6b", fine_tuned=True)
        prompt = get_problem(3).prompt(PromptLevel.MEDIUM)
        config = GenerationConfig(temperature=0.3, n=6)
        first = [c.text for c in model.generate(prompt, config)]
        second = [c.text for c in model.generate(prompt, config)]
        assert first == second

    def test_seed_changes_output(self):
        prompt = get_problem(3).prompt(PromptLevel.MEDIUM)
        config = GenerationConfig(temperature=0.3, n=8)
        a = [c.text for c in make_model("codegen-6b", True, seed=0).generate(prompt, config)]
        b = [c.text for c in make_model("codegen-6b", True, seed=1).generate(prompt, config)]
        assert a != b

    def test_n_completions_returned(self):
        model = make_model("codegen-16b", fine_tuned=True)
        out = model.generate(
            get_problem(1).prompt(PromptLevel.LOW),
            GenerationConfig(temperature=0.1, n=25),
        )
        assert len(out) == 25

    def test_j1_rejects_n25(self):
        model = make_model("j1-large-7b")
        with pytest.raises(ValueError):
            model.generate(
                get_problem(1).prompt(PromptLevel.LOW),
                GenerationConfig(temperature=0.1, n=25),
            )

    def test_inference_time_near_table4(self):
        model = make_model("codegen-16b", fine_tuned=True)
        out = model.generate(
            get_problem(1).prompt(PromptLevel.LOW),
            GenerationConfig(temperature=0.1, n=20),
        )
        mean_seconds = sum(c.inference_seconds for c in out) / len(out)
        assert mean_seconds == pytest.approx(1.994, rel=0.12)

    def test_good_model_mostly_passes_basic(self):
        model = make_model("codegen-6b", fine_tuned=True)
        problem = get_problem(1)
        evaluator = Evaluator()
        out = model.generate(
            problem.prompt(PromptLevel.LOW),
            GenerationConfig(temperature=0.1, n=30),
        )
        passes = sum(
            evaluator.evaluate(problem, c.text).passed for c in out
        )
        assert passes >= 24  # table rate is 1.000 at best-t

    def test_megatron_pt_never_compiles(self):
        model = make_model("megatron-355m")
        evaluator = Evaluator()
        problem = get_problem(2)
        out = model.generate(
            problem.prompt(PromptLevel.LOW),
            GenerationConfig(temperature=0.1, n=20),
        )
        assert all(
            not evaluator.evaluate(problem, c.text).compiled for c in out
        )

    def test_hard_problem_never_passes_functionally(self):
        model = make_model("codegen-16b", fine_tuned=True)
        evaluator = Evaluator()
        for number in (7, 12):
            problem = get_problem(number)
            out = model.generate(
                problem.prompt(PromptLevel.HIGH),
                GenerationConfig(temperature=0.1, n=20),
            )
            assert not any(
                evaluator.evaluate(problem, c.text).passed for c in out
            ), number

    def test_freeform_prompt_still_generates(self):
        model = make_model("codegen-16b", fine_tuned=True)
        out = model.generate(
            "// an unknown design\nmodule mystery(input a, output b);\n",
            GenerationConfig(temperature=0.5, n=3),
        )
        assert len(out) == 3
        assert all(c.text for c in out)

    def test_paper_model_variants_complete(self):
        names = {m.name for m in paper_model_variants()}
        assert len(names) == 11
        assert "code-davinci-002-pt" in names
        assert "codegen-16b-ft" in names


class TestFinetune:
    @pytest.fixture(scope="class")
    def corpus(self):
        return build_github_corpus(CorpusConfig(repos=12, seed=4))

    def test_finetune_ngram_report(self, corpus):
        model, report = finetune_ngram(
            corpus, holdout="module counter(input clk);"
        )
        assert report.corpus_files == len(corpus.corpus)
        assert report.perplexity_after < report.perplexity_before

    def test_finetune_transformer_loss_drops(self, corpus):
        model, report = finetune_transformer(corpus, steps=15)
        assert len(report.losses) == 15
        assert report.losses[-1] < report.losses[0]

    def test_finetune_zoo_flips_to_ft(self):
        model, report = finetune_zoo_model(
            "codegen-2b", CorpusConfig(repos=8)
        )
        assert model.fine_tuned
        assert not model.textbook_corpus
        assert report.corpus_files > 0

    def test_finetune_zoo_with_books(self):
        model, _ = finetune_zoo_model(
            "codegen-2b",
            CorpusConfig(repos=8, include_textbooks=True, textbook_count=2),
        )
        assert model.textbook_corpus

    def test_finetune_unknown_model(self):
        with pytest.raises(KeyError):
            finetune_zoo_model("nonexistent")


def _paper_plan_digest(seed: int) -> str:
    """sha256 over every completion of the paper plan at one seed: text,
    inference seconds and token count, in plan order."""
    import hashlib

    from repro.api import Session
    from repro.backends import LocalZooBackend
    from repro.eval import SweepConfig

    backend = LocalZooBackend(seed=seed)
    plan = Session(backend=backend).plan(SweepConfig(temperatures=(0.1, 0.5)))
    digest = hashlib.sha256()
    for job in plan.jobs:
        prompt = get_problem(job.problem).prompt(job.level)
        for completion in backend.generate(
            job.model, prompt, job.generation_config()
        ):
            digest.update(
                f"{completion.text}\0{completion.inference_seconds!r}\0"
                f"{completion.tokens}\0".encode()
            )
    return digest.hexdigest()


def _hinted_and_repair_digest() -> str:
    """sha256 over completions of hinted and repair-marked prompts from
    the repairable variants (the branches the paper plan never takes)."""
    import hashlib

    from repro.eval.prompting import engineered_prompt
    from repro.models import repairable_model_variants
    from repro.models.base import REPAIR_FEEDBACK_MARKER

    digest = hashlib.sha256()
    config = GenerationConfig(temperature=0.3, n=4)
    for model in repairable_model_variants(repair_rate=0.5):
        for problem in ALL_PROBLEMS:
            base = problem.prompt(PromptLevel.MEDIUM)
            for prompt in (engineered_prompt(problem, PromptLevel.MEDIUM),
                           f"{base}{REPAIR_FEEDBACK_MARKER}: retry\n"):
                for completion in model.generate(prompt, config):
                    digest.update(
                        f"{completion.text}\0"
                        f"{completion.inference_seconds!r}\0".encode()
                    )
    return digest.hexdigest()


class TestGenerationDigest:
    """Completions are byte-identical to the ones the zoo produced before
    its per-request work was hoisted out of the per-completion loop."""

    @pytest.mark.parametrize("seed,expected", [
        (0, "572475a17c264a9b2bebb35ce0d01e663eb68c9da12452cc"
            "542645c095cb4b7e"),
        (1, "c37f938cdd6e6d6971c6915d470d9a83af92a0414cb281b1"
            "ee54d76c111c1bee"),
    ])
    def test_paper_plan_completions_unchanged(self, seed, expected):
        assert _paper_plan_digest(seed) == expected

    def test_hinted_and_repair_completions_unchanged(self):
        assert _hinted_and_repair_digest() == (
            "aac6343034c6095be960814de900c4b1251c91b5f3951b85"
            "cef2fcfc89b28cb4")
