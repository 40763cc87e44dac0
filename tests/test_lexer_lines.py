"""The lexer's line cache gives a plain scan's tokens and errors.

``tokenize(source, first_line, lines)`` looks each newline-ended line
up in ``lines`` by ``(line number, line text)``, scans a line it lacks
alone, and scans the whole source when any line fails alone.  These
tests hold it to ``tokenize(source, first_line)``, token for token and
error for error (message, line and column), with one cache shared by
every source here, in order:

* the golden lexer corpus (``test_verilog_lexer_golden.py``);
* every prompt and test bench;
* the canonical and wrong bodies at every level, as full sources;
* the zoo's paper-sweep completions at seeds 0 and 1, numbered after
  the LOW prompt's prefix, as the evaluator lexes them;
* hand cases: lines that lex alone but not in their source (block
  comments and escaped newlines in strings that span lines), ``\\r\\n``
  ends, no final newline, a ``//`` comment at the end, an error after
  cached lines, a cached text at another line number, the empty source.

A hit shares the cached tokens, and a line that fails alone is never
stored.
"""

from test_verilog_lexer_golden import golden_inputs

from repro.api import Session
from repro.backends import LocalZooBackend
from repro.eval import truncate_completion
from repro.eval.harness import SweepConfig
from repro.problems import ALL_PROBLEMS, PromptLevel, get_problem
from repro.problems.spec import completion_source
from repro.verilog import LexError, tokenize
from repro.verilog.parser import prompt_prefix

#: hand cases as (name, source, first line); the order matters, since
#: earlier sources fill the cache that later ones read
HAND = [
    ("plain", "wire a;\nwire b;\nwire c;\n", 1),
    # cached lines 1 and 3 around and inside a comment opened on line 2
    ("comment_opens_after_cached", "wire a;\n/* open\nwire b;\n*/ wire c;\n", 1),
    ("comment_on_cached_text", "wire a; /* wire b;\nwire b;\nwire c; */\n", 1),
    ("comment_twice", "wire a; /* wire b;\nwire b;\nwire c; */\n", 1),
    ("one_line_comment", "wire a; /* c */ wire b;\nwire b;\n", 1),
    ("escaped_newline", 'wire a;\ninitial $display("x\\\nwire c;");\nwire c;\n', 1),
    ("escaped_newline_twice", 'wire a;\ninitial $display("x\\\nwire c;");\nwire c;\n', 1),
    ("crlf", "wire a;\r\nwire b;\r\nwire c;\r\n", 1),
    ("crlf_again", "wire a;\r\nwire b;\r\n", 1),
    ("no_final_newline", "wire a;\nwire b;\nwire c;", 1),
    ("comment_at_eof", "wire a;\nwire b;\n  // done", 1),
    ("directive_at_eof", "wire a;\nwire b;\n`timescale 1ns/1ps", 1),
    ("comment_line_then_eof", "wire a;\n// done\n", 1),
    ("error_after_cached", "wire a;\nwire b;\nwire c;\nwire $;\n", 1),
    ("error_after_cached_twice", "wire a;\nwire b;\nwire c;\nwire $;\n", 1),
    ("error_in_tail", "wire a;\nwire b;\n4'q", 1),
    ("other_line_number", "wire b;\nwire a;\nwire c;\n", 1),
    ("other_first_line", "wire a;\nwire b;\nwire c;\n", 7),
    ("blank_lines", "\n\n\nwire a;\n\n", 1),
    ("empty", "", 1),
    ("empty_later", "", 9),
    ("newline_only", "\n", 4),
]


def _outcome(source, first_line, lines=None):
    """The tokens of ``source``, or where and why lexing it failed."""
    try:
        return tokenize(source, first_line, lines)
    except LexError as exc:
        return (exc.message, exc.line, exc.column)


def _zoo_sources(seed):
    """The evaluator's lexer inputs for the seed's distinct paper-sweep
    completions: (name, completion source, first line)."""
    backend = LocalZooBackend(seed=seed)
    plan = Session(backend=backend).plan(SweepConfig(temperatures=(0.1, 0.5)))
    distinct = set()
    for job in plan.jobs:
        problem = get_problem(job.problem)
        for completion in backend.generate(
                job.model, problem.prompt(job.level),
                job.generation_config()):
            distinct.add((problem.number,
                          truncate_completion(completion.text)))
    sources = []
    for number, text in sorted(distinct):
        prefix = prompt_prefix(get_problem(number).prompt_source())
        sources.append((f"zoo{seed}/p{number}", completion_source(text),
                        prefix.next_line))
    return sources


def _corpus():
    """Every source the shared cache sees, in order."""
    sources = [(name, source, 1)
               for name, source in sorted(golden_inputs().items())]
    for problem in ALL_PROBLEMS:
        tag = f"p{problem.number}"
        bodies = [problem.canonical_body]
        bodies += [variant.body for variant in problem.wrong_variants]
        for level in PromptLevel:
            sources.append((f"{tag}/prompt/{level.value}",
                            problem.prompt(level), 1))
            sources += [(f"{tag}/body{index}/{level.value}",
                         problem.full_source(body, level), 1)
                        for index, body in enumerate(bodies)]
        sources.append((f"{tag}/bench", problem.testbench, 1))
    sources += _zoo_sources(0) + _zoo_sources(1)
    return sources + HAND


def test_cached_tokens_equal_a_plain_scan():
    lines = {}
    mismatched = [
        name for name, source, first_line in _corpus()
        if _outcome(source, first_line, lines) != _outcome(source,
                                                           first_line)
    ]
    assert mismatched == []
    assert len(lines) > 1000


def test_every_entry_is_its_line_scanned_alone():
    lines = {}
    for _, source, first_line in HAND + _zoo_sources(0)[:300]:
        _outcome(source, first_line, lines)
    for (number, text), tokens in lines.items():
        assert "\n" not in text
        assert tokens == tuple(tokenize(text + "\n", number)[:-1])


def test_a_hit_shares_the_cached_tokens():
    lines = {}
    source = "module m;\n  wire a;\nendmodule\n"
    first = tokenize(source, 1, lines)
    again = tokenize(source, 1, lines)
    assert again == first
    assert all(a is b for a, b in zip(again[:-1], first[:-1]))
    assert again[-1] == first[-1]
    assert lines[(2, "  wire a;")] == tuple(first[3:6])


def test_the_same_text_on_another_line_gets_its_own_tokens():
    lines = {}
    first = tokenize("wire a;\n", 1, lines)
    moved = tokenize("\nwire a;\n", 1, lines)
    assert [token.line for token in first] == [1, 1, 1, 2]
    assert [token.line for token in moved] == [2, 2, 2, 3]
    assert set(lines) == {(1, "wire a;"), (1, ""), (2, "wire a;")}


def test_a_line_that_fails_alone_is_never_stored():
    lines = {}
    opened = "wire a;\n/* open\nwire b; */\n"
    escaped = 'wire a;\ninitial $display("x\\\ny");\n'
    wrong = "wire a;\nwire $;\nwire b;\n"
    for source in (opened, escaped, wrong):
        for _ in range(2):
            assert _outcome(source, 1, lines) == _outcome(source, 1)
    stored = {text for _, text in lines}
    assert "wire a;" in stored
    assert not stored & {"/* open", "wire b; */", 'initial $display("x\\',
                         'y");', "wire $;"}


def test_the_end_keeps_the_eof_column_rules():
    lines = {}
    for source, column in (("wire a;\n  // done", 3),
                           ("wire a;\n`define X 1", 1),
                           ("wire a;\nwire b;", 8),
                           ("wire a;\n", 1)):
        tokens = tokenize(source, 1, lines)
        assert (tokens[-1].kind, tokens[-1].line, tokens[-1].column) == (
            "EOF", 2, column)
