"""Each prompt is lexed and parsed once.

An evaluator parses each prompt once into a
:class:`~repro.verilog.parser.PromptPrefix` and parses each completion
from there.  These tests hold that path to the one it replaced, a parse
of the whole ``problem.full_source``: the same unit or the same error
(type, message, line and column), and the same evaluations.
"""

import dataclasses
import functools
import time

import pytest

from repro.api import Session
from repro.backends import LocalZooBackend
from repro.eval import Evaluator, pipeline, truncate_completion
from repro.eval.harness import SweepConfig
from repro.obs import REGISTRY
from repro.problems import ALL_PROBLEMS, PromptLevel, get_problem
from repro.problems.spec import completion_source
from repro.verilog import parse
from repro.verilog.compile import check_syntax
from repro.verilog.parser import MAX_NESTING, prompt_prefix

LEVELS = list(PromptLevel)

#: completions at the edges of the seam between prompt and completion
EDGE_COMPLETIONS = {
    "empty": "",
    "endmodule-only": "endmodule",
    "second-module": ("endmodule\n"
                      "module helper(input a, output b);\n"
                      "  assign b = ~a;\n"
                      "endmodule"),
    "lex-error-first-line": "wire w = 1 \x01 0;\nendmodule",
    "bad-literal-first-line": "wire [3:0] w = 4'q1;\nendmodule",
    "unterminated-comment": "wire w; /* never closed\nendmodule",
    "unterminated-string": 'initial $display("open\nendmodule',
}


class FullSourceEvaluator(Evaluator):
    """The evaluator without prompt prefixes: every fresh evaluation
    parses the whole ``full_source``."""

    def _prompt(self, problem, level):
        return dataclasses.replace(super()._prompt(problem, level),
                                   prefix=None)


def _prefix(problem, level):
    return _prompt_prefix(problem.prompt_source(level))


_prompt_prefix = functools.cache(prompt_prefix)


def _outcome(source, prefix=None):
    """The unit ``source`` parses to, or what its parse raised."""
    try:
        return parse(source, prefix=prefix)
    except RecursionError:
        return RecursionError
    except Exception as error:  # noqa: BLE001 - compared, never hidden
        return (type(error), error.message, error.line, error.column)


def _assert_parses_alike(problem, level, completion):
    prefix = _prefix(problem, level)
    assert prefix is not None
    full = _outcome(problem.full_source(completion, level))
    assert _outcome(completion_source(completion), prefix) == full, (
        problem.number, level, completion)
    return full


def _zoo_completions(seeds):
    """Every distinct (problem, truncated completion) of the paper's
    zoo sweep at any of ``seeds``."""
    distinct = set()
    for seed in seeds:
        backend = LocalZooBackend(seed=seed)
        plan = Session(backend=backend).plan(
            SweepConfig(temperatures=(0.1, 0.5)))
        for job in plan.jobs:
            problem = get_problem(job.problem)
            for completion in backend.generate(
                    job.model, problem.prompt(job.level),
                    job.generation_config()):
                distinct.add((problem.number,
                              truncate_completion(completion.text)))
    return sorted(distinct)


def test_every_prompt_has_a_prefix():
    for problem in ALL_PROBLEMS:
        for level in LEVELS:
            prefix = _prefix(problem, level)
            assert prefix is not None, (problem.number, level)
            assert prefix.module.name == problem.module_name
            assert prefix.next_line == (
                problem.prompt_source(level).count("\n") + 1)


def test_zoo_completions_parse_as_the_full_source():
    completions = _zoo_completions((0, 1))
    assert len(completions) > 4000
    failures = 0
    for number, completion in completions:
        problem = get_problem(number)
        for level in LEVELS:
            full = _assert_parses_alike(problem, level, completion)
            failures += isinstance(full, tuple)
    assert failures  # parse and lex errors are among them


@pytest.mark.parametrize("name", sorted(EDGE_COMPLETIONS))
def test_edge_completions_parse_and_evaluate_as_the_full_source(name):
    completion = EDGE_COMPLETIONS[name]
    ours, reference = Evaluator(), FullSourceEvaluator()
    for problem in ALL_PROBLEMS:
        for level in LEVELS:
            _assert_parses_alike(problem, level, completion)
            assert (ours.evaluate(problem, completion, level)
                    == reference.evaluate(problem, completion, level))


def test_edge_completions_hit_their_edges():
    problem = get_problem(1)
    first = problem.prompt_source().count("\n") + 1

    def outcome(name):
        return _outcome(problem.full_source(EDGE_COMPLETIONS[name]))

    assert outcome("empty")[1] == "missing 'endmodule'"
    kind, message, line, _ = outcome("lex-error-first-line")
    assert (kind.__name__, message, line) == (
        "LexError", "unexpected character '\\x01'", first)
    assert outcome("bad-literal-first-line")[1:3] == (
        "malformed based literal", first)
    assert outcome("unterminated-comment")[1] == "unterminated block comment"
    assert len(outcome("second-module").modules) == 2


def _nested(depth):
    return "assign out = " + "(" * depth + "in" + ")" * depth + ";\nendmodule"


def _too_deep(errors):
    """Whether ``errors`` are the parser's nesting-cap error."""
    return len(errors) == 1 and errors[0].endswith(
        f"nesting deeper than {MAX_NESTING} levels")


def _smallest(too_deep):
    """The smallest paren nesting for which ``too_deep(depth)``."""
    low, high = 1, 64
    while not too_deep(high):
        low, high = high, high * 2
    while low + 1 < high:
        middle = (low + high) // 2
        low, high = (low, middle) if too_deep(middle) else (middle, high)
    return high


def _below(frames, call):
    """``call()``, made ``frames`` stack frames further down."""
    return _below(frames - 1, call) if frames else call()


#: a paren level costs the parser a handful of frames; starting from
#: this many different stack depths finds a move of even one frame
START_DEPTHS = range(8)


@pytest.mark.parametrize("frames", START_DEPTHS)
def test_the_nesting_limit_does_not_move(frames):
    problem = get_problem(1)
    prefix = _prefix(problem, PromptLevel.LOW)

    def full(depth):
        return _below(frames, lambda: check_syntax(
            problem.full_source(_nested(depth))))

    def resumed(depth):
        return _below(frames, lambda: check_syntax(
            completion_source(_nested(depth)), prefix=prefix))

    def too_deep(compile_check):
        return lambda depth: _too_deep(compile_check(depth).errors)

    depth = _smallest(too_deep(full))
    assert _smallest(too_deep(resumed)) == depth
    assert resumed(depth - 1).unit == full(depth - 1).unit is not None


@pytest.mark.parametrize("frames", START_DEPTHS)
def test_the_evaluator_nesting_limit_does_not_move(frames):
    problem = get_problem(1)

    def too_deep(evaluator_class):
        def check(depth):
            evaluation = _below(frames, lambda: evaluator_class().evaluate(
                problem, _nested(depth)))
            return _too_deep(evaluation.compile_errors)
        return check

    depth = _smallest(too_deep(FullSourceEvaluator))
    assert _smallest(too_deep(Evaluator)) == depth
    for nesting in (depth - 1, 2 * depth):
        assert (Evaluator().evaluate(problem, _nested(nesting))
                == FullSourceEvaluator().evaluate(problem, _nested(nesting)))


def test_a_completion_cannot_change_the_prefix_for_the_next():
    # problem 8's prompt declares a reg and two parameters in its module
    problem = get_problem(8)
    evaluator = Evaluator()
    grow = ("input clk;\noutput reg out;\nreg state;\nwire extra;\n"
            "parameter C = 2;\nassign extra = in;\n"
            "initial state = A;\n" + problem.canonical_body)
    body = problem.canonical_body
    for level in LEVELS:
        evaluator.evaluate(problem, grow, level)
        prefix = evaluator._prompts[problem.prompts[level]].prefix
        assert prefix.module == _prefix(problem, level).module
        assert (parse(completion_source(body), prefix=prefix)
                == parse(problem.full_source(body, level)))
        assert (evaluator.evaluate(problem, body, level)
                == FullSourceEvaluator().evaluate(problem, body, level))


def test_non_ansi_header_ports_resolve_per_parse():
    problem = dataclasses.replace(get_problem(1), prompts={
        level: "// a wire\nmodule simple_wire(in, out);\n  input in;\n"
        for level in LEVELS})
    prefix = _prefix(problem, PromptLevel.LOW)
    assert prefix.header_names == ("in", "out")
    for completion in ("output out;\nassign out = in;\nendmodule",
                       "assign out = in;\nendmodule",
                       "output out;\ninput in;\nassign out = in;\nendmodule",
                       "output out;\nassign out = in;\nendmodule"):
        _assert_parses_alike(problem, PromptLevel.LOW, completion)
    assert [port.name for port in prefix.module.ports] == ["in"]


@pytest.mark.parametrize("prompt, completion", [
    # the prompt's last item would take the completion's 'else'
    ("module simple_wire(input in, output reg out);\n"
     "  always @(*)\n    if (in) out = 1;\n",
     "else out = 0;\nendmodule"),
    # the prompt stops inside the port list
    ("module simple_wire(input in,\n", "output out);\n"
     "assign out = in;\nendmodule"),
    # a comment opened in the prompt closes in the completion
    ("module simple_wire(input in, output out);\n/* open\n",
     "closed */ assign out = in;\nendmodule"),
    # the prompt closes its module and opens none
    ("module simple_wire(input in, output out);\nendmodule\n",
     "module other; endmodule"),
    # no module at all
    ("// only a comment\n", "module simple_wire(input in, output out);\n"
     "assign out = in;\nendmodule"),
], ids=["else", "port-list", "comment", "closed", "no-module"])
def test_prompts_without_a_prefix_parse_whole(prompt, completion):
    problem = dataclasses.replace(get_problem(1), prompts={
        level: prompt for level in LEVELS})
    assert prompt_prefix(problem.prompt_source()) is None
    evaluation = Evaluator().evaluate(problem, completion)
    assert evaluation.compiled
    assert evaluation == FullSourceEvaluator().evaluate(problem, completion)


def test_a_prompt_not_ending_at_a_newline_has_no_prefix():
    assert prompt_prefix("module m(input a);\n  wire w") is None
    assert prompt_prefix("module m(input a);") is None
    assert prompt_prefix("module m(input a);\n") is not None


def test_a_prompt_parse_is_billed_to_the_evaluation_that_built_it(
        monkeypatch):
    # slow the prompt's parse down so its share of the stage is certain
    pause = 0.05

    def slow_prefix(prompt):
        time.sleep(pause)
        return prompt_prefix(prompt)

    monkeypatch.setattr(pipeline, "prompt_prefix", slow_prefix)
    problem = get_problem(2)
    evaluator = Evaluator()

    def total():
        row = REGISTRY.histogram_snapshot(
            "stage_seconds", stage="parse", problem=problem.number)
        return row["count"], row["sum"]

    runs0, seconds0 = total()
    evaluator.evaluate(problem, "// first\n" + problem.canonical_body)
    runs1, seconds1 = total()
    evaluator.evaluate(problem, "// second\n" + problem.canonical_body)
    runs2, seconds2 = total()
    # the prompt's parse, then the completion's; later, the completion's
    assert (runs1, runs2) == (runs0 + 2, runs0 + 3)
    assert seconds1 - seconds0 >= pause > seconds2 - seconds1
