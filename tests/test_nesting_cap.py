"""A design's verdict does not depend on how deep the caller's stack is.

The parser counts statement and expression nesting and fails a source
nested deeper than :data:`~repro.verilog.parser.MAX_NESTING` with a
``ParseError`` at the offending token, so the verdict is the same from a
shallow call, a deep one and a worker thread.
"""

import pytest

from repro.api import Session
from repro.backends import StubBackend
from repro.eval import Evaluator, SweepConfig
from repro.problems import PromptLevel, get_problem
from repro.verilog import ParseError, parse
from repro.verilog.compile import check_syntax
from repro.verilog.parser import MAX_NESTING

PROBLEM = get_problem(1)

#: at the cap (the assign's expression is one level, each paren one
#: more), one past it, and the depths that used to flip with the stack
PARENS = (MAX_NESTING - 1, MAX_NESTING, 150, 155, 200)
EXTRA_FRAMES = (0, 50, 100, 200)


def _nested(parens):
    return ("assign out = " + "(" * parens + "in" + ")" * parens
            + ";\nendmodule")


def _below(frames, call):
    """``call()``, made ``frames`` stack frames further down."""
    return _below(frames - 1, call) if frames else call()


def _verdict(evaluation):
    return (evaluation.compiled, evaluation.passed, evaluation.stage,
            evaluation.compile_errors)


@pytest.mark.parametrize("parens", PARENS)
def test_verdict_is_the_same_at_every_stack_depth(parens):
    verdicts = {
        frames: _verdict(_below(frames, lambda: Evaluator().evaluate(
            PROBLEM, _nested(parens))))
        for frames in EXTRA_FRAMES
    }
    assert len(set(verdicts.values())) == 1, verdicts
    compiled, passed, stage, errors = verdicts[0]
    if parens < MAX_NESTING:
        assert passed
    else:
        assert (compiled, passed, stage) == (False, False, "parse")
        assert errors[0].endswith(f"nesting deeper than {MAX_NESTING} levels")


def test_verdicts_in_a_four_thread_sweep_match_direct_calls():
    completions = tuple(_nested(parens) for parens in PARENS)
    config = SweepConfig(
        temperatures=(0.1, 0.5), completions_per_prompt=(len(PARENS),),
        levels=(PromptLevel.LOW, PromptLevel.MEDIUM),
        problem_numbers=(PROBLEM.number,),
    )
    records = Session(
        backend=StubBackend(completions=completions), executor="thread",
        workers=4,
    ).run_sweep(config).sweep.records
    assert len(records) == 4 * len(PARENS)
    for record in records:
        direct = _below(200, lambda: Evaluator().evaluate(
            PROBLEM, completions[record.sample_index], record.level))
        assert (record.compiled, record.passed) == (
            direct.compiled, direct.passed)
        assert record.passed == (PARENS[record.sample_index] < MAX_NESTING)


def test_the_error_carries_the_line_of_the_level_past_the_cap():
    source = ("module m(input a, output y);\n"
              "  assign y =\n"
              + "(" * MAX_NESTING + "a" + ")" * MAX_NESTING + ";\n"
              "endmodule\n")
    with pytest.raises(ParseError) as info:
        parse(source)
    # at the first token inside the paren that opens level cap + 1
    assert (info.value.line, info.value.column) == (3, MAX_NESTING + 1)
    report = check_syntax(source)
    assert (report.ok, report.stage, report.line) == (False, "parse", 3)


#: `always @* y = a;` nested ``k`` levels deeper; unnested it opens
#: three levels: the event control, the assignment and its value
NESTINGS = {
    "if": lambda k: "if (a) " * k + "y = a;",
    "begin": lambda k: "begin " * k + "y = a;" + " end" * k,
    "unary": lambda k: "y = " + "~" * k + "a;",
}


@pytest.mark.parametrize("kind", sorted(NESTINGS))
def test_statements_and_operators_count_too(kind):
    def source(levels):
        return ("module m(input a, output reg y);\n"
                f"  always @* {NESTINGS[kind](levels)}\n"
                "endmodule\n")

    parse(source(MAX_NESTING - 3))
    with pytest.raises(ParseError, match="nesting deeper than"):
        parse(source(MAX_NESTING - 2))
