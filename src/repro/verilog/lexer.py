"""Tokenizer for the Verilog-2001 subset used by the evaluation pipeline.

Produces a flat token stream with line/column positions.  Handles line and
block comments, sized/based numeric literals (including x/z digits),
string literals, system identifiers (``$display``), escaped identifiers,
and compiler directives (```timescale`` and friends are consumed to end of
line, ```define``-free sources are assumed — the problem set and corpus
use none).

One master regular expression matches each token (or newline, comment
or error) in turn, with the blanks that follow it; its ``lastgroup``
names what matched.  Columns are ``pos - line_start + 1``.  Two
conventions of the original character-at-a-time scanner are kept, so
token streams and errors stay identical to its: a ``//`` comment or
directive that runs to the end of the source leaves the EOF column
where it started, and a backslash-escaped newline inside a string
literal does not advance the line count.
"""

from __future__ import annotations

import re

from .errors import LexError

KEYWORDS = frozenset(
    """
    module endmodule input output inout wire reg integer real parameter
    localparam assign always initial begin end if else case casez casex
    endcase default for while repeat forever posedge negedge or and not
    nand nor xor xnor buf signed unsigned function endfunction task endtask
    generate endgenerate genvar wait deassign disable
    """.split()
)

# Multi-character operators first; the regex alternation tries them in
# this order, so maximal munch works.
OPERATORS = [
    "<<<", ">>>", "===", "!==", "+:", "-:",
    "**", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "~&", "~|", "~^", "^~", "->",
    "+", "-", "*", "/", "%", "!", "~", "&", "|", "^", "<", ">",
    "=", "?", ":", ",", ";", ".", "(", ")", "[", "]", "{", "}", "#", "@",
]


class Token:
    """A single lexical token.

    kind is one of: ID, KEYWORD, NUMBER, BASED_NUMBER, STRING, SYSID, OP, EOF.
    For NUMBER, ``meta`` is ``(value,)``.  For BASED_NUMBER, ``text``
    keeps the literal (e.g. ``8'hFF``) and the parsed fields live in
    ``meta`` as (size_or_None, base_char, digits, signed_flag).
    Tokens are values: treat them as immutable.
    """

    __slots__ = ("kind", "text", "line", "column", "meta")

    def __init__(self, kind: str, text: str, line: int, column: int,
                 meta: tuple | None = None):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column
        self.meta = meta

    def _key(self) -> tuple:
        return (self.kind, self.text, self.line, self.column, self.meta)

    def __eq__(self, other):
        if other.__class__ is not Token:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:  # compact for parser error messages
        return f"{self.kind}({self.text!r}@{self.line}:{self.column})"


_BASED = (
    r"(?:[0-9][0-9_]*[ \t]*)?'[sS]?"
    r"(?:[bB][01xXzZ?_]*|[oO][0-7xXzZ?_]*|[dD][0-9xXzZ?_]*"
    r"|[hH][0-9a-fA-FxXzZ?_]*)"
)

#: group name -> pattern, in the order the alternation tries them.  The
#: common single-character punctuation is tried before the operator
#: list; none of it begins a longer operator.
_GROUPS = (
    ("word", r"[A-Za-z_][A-Za-z0-9_$]*"),
    ("punct", r"[;,()\[\]{}@#]"),
    ("newline", r"\n"),
    ("line_comment", r"//[^\n]*|`[^\n]*"),
    ("block_comment", r"/\*[\s\S]*?\*/"),
    ("open_comment", r"/\*"),
    ("op", "|".join(re.escape(op) for op in OPERATORS)),
    ("based", _BASED),
    ("bad_based", r"[0-9][0-9_]*[ \t]*'"),
    ("number", r"[0-9][0-9_]*"),
    ("string", r'"[^"\\\n]*(?:\\[\s\S][^"\\\n]*)*"'),
    ("sysid", r"\$[A-Za-z0-9_$]+"),
    ("escaped_id", r"\\\S*"),
    ("blank", r"[ \t\r\f]+"),
    ("unmatched", r"[\s\S]"),
)

#: Every match is one group plus the blanks after it, and ``unmatched``
#: takes any character nothing else does, so consecutive matches cover
#: the source.
_TOKEN = re.compile(
    "(?:" + "|".join(f"(?P<{name}>{pattern})" for name, pattern in _GROUPS)
    + r")[ \t\r\f]*"
)


def _string_error(source: str, pos: int, line: int, column: int) -> LexError:
    """Why the string literal opening at ``pos`` did not match."""
    index = pos + 1
    while index < len(source):
        ch = source[index]
        if ch == "\\":
            index += 2
            continue
        if ch == "\n":
            return LexError("newline in string literal", line, column)
        index += 1
    return LexError("unterminated string literal", line, column)


def _error(kind: str, source: str, pos: int, line: int,
           column: int) -> LexError:
    """The error for a match of ``kind`` at ``pos``, where no token starts."""
    if kind == "open_comment":
        return LexError("unterminated block comment", line, column)
    if kind == "bad_based":
        return LexError("malformed based literal", line, column)
    ch = source[pos]
    if ch == '"':
        return _string_error(source, pos, line, column)
    if ch == "$":
        return LexError("bare '$'", line, column)
    return LexError(f"unexpected character {ch!r}", line, column)


def _based_token(text: str, line: int, column: int) -> Token:
    quote = text.index("'")
    size = text[:quote].rstrip(" \t").replace("_", "")
    index = quote + 1
    signed = text[index] in "sS"
    if signed:
        index += 1
    digits = text[index + 1:].replace("_", "")
    if not digits:
        raise LexError("based literal has no digits", line, column)
    try:
        width = int(size) if size else None
    except ValueError:
        raise LexError("literal size too long", line, column) from None
    meta = (width, text[index].lower(), digits, signed)
    return Token("BASED_NUMBER", text, line, column, meta)


def tokenize(source: str, first_line: int = 1) -> list[Token]:
    """Tokenize Verilog source, raising :class:`LexError` on bad input.

    ``first_line`` numbers the source's first line, so a source that
    continues another one reports the lines of the whole.
    """
    tokens: list[Token] = []
    append = tokens.append
    keywords = KEYWORDS
    line = first_line
    line_start = 0
    eof_column = 0
    for found in _TOKEN.finditer(source):
        kind = found.lastgroup
        if kind == "word":
            text = found.group(kind)
            append(Token("KEYWORD" if text in keywords else "ID", text,
                         line, found.start() - line_start + 1))
        elif kind == "punct" or kind == "op":
            append(Token("OP", found.group(kind), line,
                         found.start() - line_start + 1))
        elif kind == "newline":
            line += 1
            line_start = found.start() + 1
        elif kind == "blank":
            pass
        elif kind == "number":
            text = found.group(kind)
            column = found.start() - line_start + 1
            try:
                value = int(text.replace("_", ""))
            except ValueError:
                raise LexError("decimal literal too long", line,
                               column) from None
            append(Token("NUMBER", text, line, column, (value,)))
        elif kind == "based":
            append(_based_token(found.group(kind), line,
                                found.start() - line_start + 1))
        elif kind == "line_comment":
            if found.end() == len(source):
                eof_column = found.start() - line_start + 1
        elif kind == "block_comment":
            text = found.group(kind)
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = found.start() + text.rfind("\n") + 1
        elif kind == "string":
            append(Token("STRING", found.group(kind), line,
                         found.start() - line_start + 1))
        elif kind == "sysid":
            append(Token("SYSID", found.group(kind), line,
                         found.start() - line_start + 1))
        elif kind == "escaped_id":
            append(Token("ID", found.group(kind)[1:], line,
                         found.start() - line_start + 1))
        else:
            pos = found.start()
            raise _error(kind, source, pos, line, pos - line_start + 1)
    append(Token("EOF", "", line, eof_column or len(source) - line_start + 1))
    return tokens
