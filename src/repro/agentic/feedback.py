"""Failure → re-prompt formatting for the repair loop.

Turns a structured :class:`~repro.eval.pipeline.CompletionEvaluation`
into the feedback turn of a repair transcript: a compact, comment-only
summary of *why* the previous attempt failed (stage, diagnostics with
line numbers, lint findings) followed by the retry instruction.  All
feedback lines are ``//`` comments, so appending them to a flattened
transcript never changes how the zoo (or any parser) reads the code
itself; the structured fields come straight off the evaluation — no
error-string scraping.
"""

from __future__ import annotations

from ..eval.pipeline import CompletionEvaluation
from ..models.base import REPAIR_FEEDBACK_MARKER
from ..problems import Problem, PromptLevel
from ..verilog.lint import lint_source_unit
from ..verilog.parser import parse

_STAGE_HEADLINES = {
    "parse": "the previous completion has a syntax error",
    "elaborate": "the previous completion parsed but failed elaboration",
    "analysis": "the previous completion compiled but static analysis "
    "found a structural defect",
    "sim": "the previous completion crashed during simulation",
    "testbench": "the previous completion compiled but failed the test "
    "bench",
}


def lint_findings(
    problem: Problem,
    completion: str,
    level: PromptLevel = PromptLevel.LOW,
    limit: int = 3,
) -> list[str]:
    """Static-lint findings for a completion, best effort.

    Empty when the source does not parse (nothing to lint) or the
    linter itself trips — feedback quality degrades gracefully instead
    of failing the repair round.
    """
    try:
        unit = parse(problem.full_source(completion, level))
        warnings = lint_source_unit(unit)
    except Exception:  # noqa: BLE001 — lint is advisory only
        return []
    return [str(warning) for warning in warnings[:limit]]


def format_feedback(
    evaluation: CompletionEvaluation,
    round_index: int,
    max_errors: int = 3,
    lint: "list[str] | tuple[str, ...]" = (),
) -> str:
    """The user turn that re-prompts the model after a failed attempt.

    Opens with :data:`~repro.models.base.REPAIR_FEEDBACK_MARKER` (the
    machine-readable "this is an error-conditioned re-query" signal the
    repairable zoo keys on), names the failing stage, quotes up to
    ``max_errors`` diagnostics, and closes with the retry instruction.
    """
    headline = _STAGE_HEADLINES.get(
        evaluation.stage, "the previous completion failed verification"
    )
    lines = [f"{REPAIR_FEEDBACK_MARKER} (round {round_index}): {headline}"]
    shown = list(evaluation.compile_errors[:max_errors])
    for error in shown:
        lines.append(f"//   {evaluation.stage or 'error'}: {error}")
    hidden = len(evaluation.compile_errors) - len(shown)
    if hidden > 0:
        lines.append(f"//   (+{hidden} more diagnostic(s) not shown)")
    if evaluation.error_line and not shown:
        lines.append(f"//   first error near line {evaluation.error_line}")
    if evaluation.stage == "testbench" and not shown:
        if evaluation.sim_finished:
            lines.append("//   the test bench ran and reported mismatches")
        else:
            lines.append(
                "//   simulation did not finish (possible runaway loop)"
            )
    analysis = [
        f for f in getattr(evaluation, "findings", ())
        if evaluation.stage != "analysis" or f.severity != "error"
    ]
    for finding in analysis[:max_errors]:
        lines.append(f"//   analysis: {finding}")
    for finding in lint:
        lines.append(f"//   lint: {finding}")
    lines.append(
        "// Rewrite the complete module body, fixing the problem above."
    )
    return "\n".join(lines)


__all__ = ["format_feedback", "lint_findings"]
