"""The evaluator's token memo answers only what a fresh run would.

After a text-cache and store miss, :meth:`Evaluator.evaluate` lexes the
completion once and looks its tokens up by problem and a digest of every
token's kind, text, LOW-prompt line and column.  An entry holds a
front-end verdict (stage ``parse``, ``elaborate`` or ``analysis``) with
LOW-prompt line numbers.  These tests hold memo-answered verdicts to
fresh ones:

* inserting comment or blank lines into a completion moves its
  ``error_line`` by the lines inserted and changes nothing else
  (the canonical and wrong bodies and a seeded zoo sample, at every
  level, on one evaluator each, so the memo is shared);
* equal tokens on other lines, or at another level's equal raw lines,
  get their own lines;
* completions that differ only in a comment run once;
* a completion that does not lex is never memoized;
* an entry made at LOW answers MEDIUM and HIGH with their lines;
* every memo-answered verdict of the seed-0 paper sweep equals a fresh
  evaluator's, field for field.
"""

import random

import pytest

from repro.api import Session
from repro.backends import LocalZooBackend
from repro.eval import Evaluator, truncate_completion
from repro.eval.harness import SweepConfig
from repro.eval.store import VerdictStore
from repro.obs import REGISTRY
from repro.problems import ALL_PROBLEMS, PromptLevel, get_problem

LEVELS = list(PromptLevel)

#: a problem-1 body that fails to parse on its first line
BAD = "assign out = in +;\nendmodule"


def _zoo_sample(seed: int, size: int) -> list[tuple[int, str]]:
    """A seeded sample of the distinct (problem, truncated completion)
    pairs the zoo serves in the seed's paper sweep."""
    backend = LocalZooBackend(seed=seed)
    plan = Session(backend=backend).plan(
        SweepConfig(temperatures=(0.1, 0.5)))
    pairs = set()
    for job in plan.jobs:
        problem = get_problem(job.problem)
        for completion in backend.generate(
                job.model, problem.prompt(job.level),
                job.generation_config()):
            pairs.add((problem.number, truncate_completion(completion.text)))
    return random.Random(seed).sample(sorted(pairs), size)


def _bases() -> list[tuple[int, str]]:
    bases = []
    for problem in ALL_PROBLEMS:
        bodies = [problem.canonical_body]
        bodies += [variant.body for variant in problem.wrong_variants]
        bases += [(problem.number, truncate_completion(body))
                  for body in bodies]
    return bases + _zoo_sample(0, 80)


def _inserted(text: str, rng: random.Random):
    """``text`` with lines inserted before one of its lines: (variant,
    that line's index in the stripped completion, lines inserted).

    Lines go between the first and the last line with content, where
    stripping the completion cannot remove them or the blank lines
    around them; blank lines go after the first.  Nothing goes after a
    line that ends in a backslash, which may continue a string literal.
    """
    lines = text.split("\n")
    filled = [index for index, line in enumerate(lines) if line.strip()]
    first, last = filled[0], filled[-1]
    spots = [index for index in range(first, last + 1)
             if index == first or not lines[index - 1].endswith("\\")]
    index = rng.choice(spots)
    if index > first and rng.random() < 0.5:
        inserted = [""] * rng.randint(1, 3)
    else:
        inserted = ["// inserted"] * rng.randint(1, 3)
    variant = "\n".join(lines[:index] + inserted + lines[index:])
    return variant, index - first, len(inserted)


def _commented(text: str, note: str) -> str:
    """``text`` with a comment after its first line's last token: no
    token moves."""
    head, _, tail = text.partition("\n")
    return f"{head} // {note}\n{tail}"


def _shape(outcome):
    return (outcome.compiled, outcome.passed, outcome.stage,
            [finding.code for finding in outcome.findings])


@pytest.mark.parametrize("level", LEVELS, ids=str)
def test_inserted_lines_move_error_line_and_nothing_else(level):
    rng = random.Random(f"insert-{level}")
    evaluator = Evaluator()
    for number, text in _bases():
        problem = get_problem(number)
        base = evaluator.evaluate(problem, text, level)
        prompt_lines = problem.prompt_source(level).count("\n")
        for _ in range(2):
            variant, index, count = _inserted(text, rng)
            moved = evaluator.evaluate(problem, variant, level)
            assert _shape(moved) == _shape(base), (number, variant)
            # line ``index`` of the completion is source line
            # prompt_lines + 1 + index; it and all after it move
            expected = base.error_line
            if expected > prompt_lines + index:
                expected += count
            assert moved.error_line == expected, (number, variant)
    assert evaluator.token_hits > 0


def test_equal_tokens_on_other_lines_get_their_own_error_line():
    problem = get_problem(1)
    evaluator = Evaluator()
    first = evaluator.evaluate(problem, BAD)
    second = evaluator.evaluate(problem, "// moved down\n" + BAD)
    assert (first.stage, second.stage) == ("parse", "parse")
    assert second.error_line == first.error_line + 1
    assert second == Evaluator().evaluate(problem, "// moved down\n" + BAD)
    assert evaluator.cache_info["token_hits"] == 0


@pytest.mark.parametrize("level", LEVELS[1:], ids=str)
def test_equal_raw_lines_at_another_level_are_not_shared(level):
    """A completion at LOW padded by as many comment lines as ``level``'s
    prompt has more puts its tokens on the raw lines of the bare one at
    ``level``; their LOW-prompt lines differ, and so do their keys."""
    for problem in ALL_PROBLEMS:
        body = "wire w;\nassign out = w +;\nendmodule"
        delta = (problem.prompt_source(level).count("\n")
                 - problem.prompt_source(PromptLevel.LOW).count("\n"))
        evaluator = Evaluator()
        evaluator.evaluate(problem, "// pad\n" * delta + body)
        outcome = evaluator.evaluate(problem, body, level)
        assert outcome == Evaluator().evaluate(problem, body, level)
        assert evaluator.token_hits == 0, problem.number


def test_completions_differing_in_a_comment_run_once():
    problem = get_problem(1)
    evaluator = Evaluator()
    REGISTRY.reset()
    variants = [
        (BAD, PromptLevel.LOW),
        ("assign out = in +; // one\nendmodule", PromptLevel.LOW),
        ("assign out = in +; /* two */\nendmodule", PromptLevel.MEDIUM),
        ("assign out = in +;   \nendmodule // three", PromptLevel.HIGH),
    ]
    outcomes = [evaluator.evaluate(problem, text, level)
                for text, level in variants]
    info = evaluator.cache_info
    assert (info["misses"], info["token_hits"], info["hits"]) == (1, 3, 0)
    assert info["entries"] == 4
    assert REGISTRY.counter_value("evaluator_cache", result="token_hit") == 3
    assert REGISTRY.counter_value("evaluator_cache", result="miss") == 1
    for (text, level), outcome in zip(variants, outcomes):
        assert outcome == Evaluator().evaluate(problem, text, level)


def test_a_memo_hit_fills_the_text_cache():
    problem = get_problem(1)
    evaluator = Evaluator()
    evaluator.evaluate(problem, BAD)
    again = _commented(BAD, "again")
    evaluator.evaluate(problem, again, PromptLevel.HIGH)
    evaluator.evaluate(problem, again, PromptLevel.HIGH)
    assert evaluator.cache_info == {
        "hits": 1, "misses": 1, "token_hits": 1, "entries": 2}


def test_a_completion_that_fails_to_lex_is_never_memoized():
    problem = get_problem(1)
    evaluator = Evaluator()
    texts = ["assign out = in; \x01\nendmodule",
             "assign out = in; \x01 // other\nendmodule",
             'assign out = in;\ninitial $display("open\nendmodule']
    for text in texts:
        outcome = evaluator.evaluate(problem, text)
        assert outcome.stage == "parse" and outcome.error_line
        assert outcome == Evaluator().evaluate(problem, text)
    assert evaluator.cache_misses == 3 and evaluator.token_hits == 0
    assert not evaluator._memo


def test_simulated_verdicts_are_not_memoized():
    problem = get_problem(1)
    evaluator = Evaluator()
    wrong = problem.wrong_variants[0].body
    for text in (problem.canonical_body, wrong):
        evaluator.evaluate(problem, text)
        evaluator.evaluate(problem, _commented(text, "again"))
    assert evaluator.cache_misses == 4 and evaluator.token_hits == 0
    assert not evaluator._memo


def test_a_low_entry_answers_medium_and_high_with_their_lines():
    for problem in ALL_PROBLEMS:
        evaluator = Evaluator()
        body = "wire w;\nassign out = w +;\nendmodule"
        low = evaluator.evaluate(problem, body)
        assert low.stage == "parse"
        for hits, level in enumerate(LEVELS[1:], start=1):
            text = _commented(body, f"at {level}")
            outcome = evaluator.evaluate(problem, text, level)
            assert evaluator.token_hits == hits, (problem.number, level)
            assert outcome == Evaluator().evaluate(problem, text, level)
            source = problem.full_source(text, level).split("\n")
            assert "w +;" in source[outcome.error_line - 1]


def test_analysis_findings_keep_their_lines_across_levels():
    problem = get_problem(1)
    body = ("wire a, b;\nassign a = b;\nassign b = a;\nassign out = a;\n"
            "endmodule")
    evaluator = Evaluator()
    evaluator.evaluate(problem, body)
    for level in LEVELS[1:]:
        text = _commented(body, f"at {level}")
        outcome = evaluator.evaluate(problem, text, level)
        assert outcome.stage == "analysis" and outcome.findings
        assert outcome == Evaluator().evaluate(problem, text, level)
    assert evaluator.token_hits == 2


def test_memo_answers_of_the_paper_sweep_equal_fresh_verdicts():
    backend = LocalZooBackend(seed=0)
    plan = Session(backend=backend).plan(
        SweepConfig(temperatures=(0.1, 0.5)))
    evaluator = Evaluator()
    answered = []
    for job in plan.jobs:
        problem = get_problem(job.problem)
        for completion in backend.generate(
                job.model, problem.prompt(job.level),
                job.generation_config()):
            before = evaluator.token_hits
            outcome = evaluator.evaluate(problem, completion.text, job.level)
            if evaluator.token_hits > before:
                answered.append((problem, completion.text, job.level,
                                 outcome))
    assert len(answered) == evaluator.token_hits > 1000
    for problem, text, level, outcome in answered:
        assert outcome == Evaluator().evaluate(problem, text, level), (
            problem.number, level, text)


def test_a_memo_hit_puts_its_verdict_under_its_text_key(tmp_path):
    problem = get_problem(1)
    store = VerdictStore(str(tmp_path / "verdicts"))
    writer = Evaluator(store=store)
    again = _commented(BAD, "again")
    writer.evaluate(problem, BAD)
    hit = writer.evaluate(problem, again, PromptLevel.MEDIUM)
    assert writer.token_hits == 1 and len(store) == 2
    reader = Evaluator(store=store)
    assert reader.evaluate(problem, again, PromptLevel.MEDIUM) == hit
    assert reader.store_hits == 1 and reader.cache_misses == 0
    store.close()
