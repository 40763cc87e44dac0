"""Known answers: the verdict a completion must get, from where its text came from.

The expected verdict never comes from the evaluator.  A completion is
classified by its origin: the problem's canonical body (under any
presentation of leading comment lines and trailing text that truncation
drops) must pass, one of the problem's wrong variants must fail the test
bench, and anything else - a mutated, syntax-broken body - must fail to
compile.
"""

from __future__ import annotations

import re

PASS = "pass"
TEST_FAIL = "test-fail"
COMPILE_ERROR = "compile-error"

#: verdict -> (compiled, passed), the two record fields a verdict sets
VERDICT_FIELDS = {
    PASS: (True, True),
    TEST_FAIL: (True, False),
    COMPILE_ERROR: (False, False),
}

_COMMENT_LINES = re.compile(r"(?:[ \t]*(?://[^\n]*)?\n)*[ \t]*")
_LINE_COMMENT = re.compile(r"//[^\n]*")


def _prefix_ok(text: str) -> bool:
    """Only blank lines and ``//`` comment lines precede the body."""
    return _COMMENT_LINES.fullmatch(text) is not None


def _trailer_ok(text: str) -> bool:
    """After the body: comments and blanks, or a further module that
    truncation at the first ``endmodule`` discards."""
    rest = _LINE_COMMENT.sub("", text).strip()
    return rest == "" or rest.startswith("module")


def origin_bodies(problem) -> list[tuple[str, str]]:
    """(body, verdict) for every body the problem's completions come from."""
    bodies = [(problem.canonical_body.rstrip("\n"), PASS)]
    bodies += [(v.body.rstrip("\n"), TEST_FAIL) for v in problem.wrong_variants]
    return bodies


def known_verdict(problem, text: str) -> str:
    """The verdict ``text`` must get, judged by its origin alone."""
    for body, verdict in origin_bodies(problem):
        start = text.find(body)
        if (start >= 0 and _prefix_ok(text[:start])
                and _trailer_ok(text[start + len(body):])):
            return verdict
    return COMPILE_ERROR


def count_mismatches(records, reference) -> int:
    """Positions where a record differs from its reference record, plus
    any records missing from or added to either list."""
    differing = sum(1 for got, want in zip(records, reference) if got != want)
    return differing + abs(len(records) - len(reference))
