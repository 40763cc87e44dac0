"""Golden verdicts: evaluator and linter output over a fixed corpus.

The corpus is every distinct (problem, prompt level, completion) the
calibrated zoo serves in the paper sweep at seeds 0 and 1, plus each
problem's canonical body and every wrong variant at all three levels.
Each input contributes the ``repr`` of its
:class:`~repro.eval.pipeline.CompletionEvaluation` (verdict fields,
stage, error line, compile errors and analysis findings, in order) on
the compiled engine with analysis on, and the lint warnings of its full
source, in order.  ``tests/data/verdict_golden.json`` holds one digest
per problem and one over the whole corpus; the inputs are regenerated
here, only the digests are checked in.

The front end's traversal, elaboration checks, analyzer and linter all
feed these fields, so a refactor of any of them that changes one
finding, message or line on one input fails this test.  After a
deliberate change to those outputs, rewrite the file with::

    PYTHONPATH=src python tests/test_verdict_golden.py
"""

import hashlib
import json
import os

from repro.api import Session
from repro.backends import LocalZooBackend
from repro.eval.harness import SweepConfig
from repro.eval.pipeline import Evaluator
from repro.problems import ALL_PROBLEMS, PromptLevel, get_problem
from repro.verilog import VerilogError, lint_source_unit, parse

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "verdict_golden.json")

#: the paper sweep's zoo seeds the corpus draws completions from
SEEDS = (0, 1)


def corpus() -> list[tuple[int, PromptLevel, str]]:
    """Every distinct (problem number, level, completion), sorted."""
    inputs = set()
    for seed in SEEDS:
        backend = LocalZooBackend(seed=seed)
        plan = Session(backend=backend).plan(
            SweepConfig(temperatures=(0.1, 0.5)))
        for job in plan.jobs:
            problem = get_problem(job.problem)
            for completion in backend.generate(
                    job.model, problem.prompt(job.level),
                    job.generation_config()):
                inputs.add((problem.number, job.level, completion.text))
    for problem in ALL_PROBLEMS:
        bodies = [problem.canonical_body]
        bodies += [variant.body for variant in problem.wrong_variants]
        for body in bodies:
            for level in PromptLevel:
                inputs.add((problem.number, level, body))
    return sorted(inputs, key=lambda i: (i[0], i[1].value, i[2]))


def lint_text(source: str) -> str:
    """The lint warnings of ``source`` in order, or its front-end error."""
    try:
        warnings = lint_source_unit(parse(source))
    except VerilogError as exc:
        return f"error: {type(exc).__name__}"
    return repr([str(warning) for warning in warnings])


def golden_digests() -> dict:
    """``{"inputs": count, "all": digest, "p<N>": digest, ...}``."""
    evaluator = Evaluator(compile_sim=True, analysis=True)
    whole = hashlib.sha256()
    by_problem: dict[int, "hashlib._Hash"] = {}
    inputs = corpus()
    for number, level, completion in inputs:
        problem = get_problem(number)
        evaluation = evaluator.evaluate(problem, completion, level)
        lint = lint_text(problem.full_source(completion, level))
        entry = (f"{number}|{level.value}|{completion}\n"
                 f"{evaluation!r}\n{lint}\n").encode()
        whole.update(entry)
        by_problem.setdefault(number, hashlib.sha256()).update(entry)
    digests = {"inputs": len(inputs), "all": whole.hexdigest()[:16]}
    for number, digest in sorted(by_problem.items()):
        digests[f"p{number}"] = digest.hexdigest()[:16]
    return digests


def test_corpus_verdicts_and_lint_match_the_recorded_digests():
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)
    assert golden_digests() == golden


if __name__ == "__main__":
    entries = golden_digests()
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(entries, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"wrote digests of {entries['inputs']} inputs to {GOLDEN_PATH}")
