"""Golden token streams: the lexer's output on a fixed, seeded input set.

``tests/data/lexer_golden.json`` maps each input's name to the digest
of its token stream (kind, text, line, column, meta of every token), or
to ``[message, line, column]`` when lexing raises :class:`LexError`.
The entries were recorded from the character-at-a-time scanner that
the master-regex lexer replaced, so this test pins the regex lexer to
that scanner token for token and error for error.  The inputs are
regenerated here from seeds; only the digests are checked in.

After a deliberate change to the token stream, rewrite the file with::

    PYTHONPATH=src python tests/test_verilog_lexer_golden.py
"""

import hashlib
import json
import os
import random

from repro.models.mutations import broken_completion
from repro.problems import ALL_PROBLEMS, PromptLevel
from repro.verilog import LexError, tokenize

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "lexer_golden.json")

#: hand-written cases for the scanner's conventions and every error
QUIRKS = {
    # the EOF column stays where a trailing comment/directive started
    "eof_after_line_comment": "module m; endmodule  // trailing",
    "eof_after_directive": "module m; endmodule\n  `timescale 1ns/1ps",
    "eof_after_comment_only": "// only a comment",
    "eof_after_newline": "module m; endmodule // c\n",
    # a backslash-escaped newline inside a string is not a new line
    "string_escaped_newline": 'initial $display("a\\\nb"); wire w;\nx',
    "string_escaped_quote": 'initial $display("a\\"b");',
    # a quote that starts no based literal
    "bare_quote": "assign x = 'q;",
    "quote_s_nonbase": "assign x = 'sq;",
    "quote_at_eof": "assign x = '",
    # literal errors are reported at the literal's start
    "malformed_based": "assign x = 4'q;",
    "malformed_based_spaced": "assign x = 12  'x;",
    "malformed_signed": "assign x = 4'sx;",
    "based_no_digits": "assign x = 12 'h;",
    "based_only_underscores": "assign x = 8'b__;",
    "unsized_no_digits": "  'd",
    "size_at_eof": "assign x = 4'",
    # literal shapes
    "based_spaced": "assign y = 8 \t'hFF + 'sb101 + 'Sh_f + 4'sd? + 16'hDE_AD;",
    "decimal_underscores": "x = 1_000 + 007 + 4'd1_2;",
    "xz_digits": "x = 8'bzz_XX + 'hz + 'dx + 4'o7?;",
    "real_like": "x = 1.5;",
    # strings and identifiers
    "unterminated_string": 'initial $display("oops',
    "newline_in_string": 'initial $display("a\nb");',
    "backslash_at_eof_in_string": 'initial $display("a\\',
    "bare_dollar": "initial $ ;",
    "sysid_with_dollar": "$a$b $display",
    "escaped_identifier": "wire \\my+net , \\a\u00a0b ;",
    "escaped_identifier_at_eof": "wire \\",
    # comments, blanks, line ends
    "unterminated_block_comment": "wire a;\n  /* never\n closed",
    "block_comment_lines": "a /* x\ny\n  */ b\n/**/c/* */d",
    "crlf_and_tabs": "module m;\r\n\twire a;\r\n\t\tendmodule\r\n",
    "form_feed": "a\fb",
    "vertical_tab": "a\x0bb",
    "non_ascii": "a \u00a3 b",
    "unicode_space": "a\u2028b",
    # operators
    "operators": "a<<<b>>>c===d!==e+:f-:g**h<<i>>j<=k>=l==m!=n&&o||p"
                 "~&q~|r~^s^~t->u%v!w~x&y|z^a<b>c=d?e:f,g;h.i(j)[k]{l}#m@n/o*p",
    "empty": "",
}


def _digest(tokens) -> str:
    stream = repr([(t.kind, t.text, t.line, t.column, t.meta) for t in tokens])
    return hashlib.sha256(stream.encode()).hexdigest()[:16]


def golden_entry(source: str):
    """The token-stream digest of ``source``, or its error coordinates."""
    try:
        return _digest(tokenize(source))
    except LexError as exc:
        return [exc.message, exc.line, exc.column]


#: characters and fragments spliced into bodies by the text mutants
_SPLICES = list("'\"\\$/*`\n \t\r\x0b\f0123456789_sSbBoOdDhHxXzZ?:;+-<>=!~&|^()"
                "[]{}.,#@%\u00a3\u00a0") + [
    "//", "/*", "*/", "4'b", "'s", "\\\n", "8'hF", "'d", " '", "12 'h",
]


def _text_mutant(text: str, rng: random.Random) -> str:
    """``text`` with one to four random character-level edits."""
    for _ in range(rng.randint(1, 4)):
        at = rng.randrange(len(text) + 1)
        edit = rng.random()
        if edit < 0.4:
            text = text[:at] + rng.choice(_SPLICES) + text[at:]
        elif edit < 0.7:
            text = text[:at] + text[at + rng.randint(1, 5):]
        elif edit < 0.85:
            text = text[:at]
        else:
            text = text[:at] + rng.choice(_SPLICES) + text[at + 1:]
    return text


def golden_inputs() -> dict[str, str]:
    """Every golden input by name, regenerated from fixed seeds."""
    inputs = {f"quirk/{name}": source for name, source in QUIRKS.items()}
    for problem in ALL_PROBLEMS:
        tag = f"p{problem.number}"
        bodies = [("canonical", problem.canonical_body)] + [
            (f"wrong{index}", variant.body)
            for index, variant in enumerate(problem.wrong_variants)
        ]
        for name, body in bodies:
            for level in PromptLevel:
                inputs[f"{tag}/{name}/{level.value}/full"] = (
                    problem.full_source(body, level))
                inputs[f"{tag}/{name}/{level.value}/bench"] = (
                    problem.bench_source(body, level))
        rng = random.Random(problem.number)
        for index in range(12):
            body = rng.choice(bodies)[1]
            level = rng.choice(list(PromptLevel))
            inputs[f"{tag}/mutant{index}"] = problem.full_source(
                broken_completion(body, rng), level)
        for index in range(40):
            body = rng.choice(bodies)[1]
            level = rng.choice(list(PromptLevel))
            source = problem.full_source(body, level)
            if index % 3 == 0:
                source = problem.bench_source(body, level)
            inputs[f"{tag}/edit{index}"] = _text_mutant(source, rng)
    return inputs


def load_golden() -> dict:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


class TestGolden:
    def test_inputs_match_the_recorded_set(self):
        assert sorted(golden_inputs()) == sorted(load_golden())

    def test_every_input_lexes_as_recorded(self):
        golden = load_golden()
        inputs = golden_inputs()
        mismatched = [
            name for name, source in inputs.items()
            if golden_entry(source) != golden[name]
        ]
        assert mismatched == []

    def test_set_covers_errors_and_quirks(self):
        golden = load_golden()
        errors = [entry for entry in golden.values()
                  if isinstance(entry, list)]
        messages = {entry[0] for entry in errors}
        assert len(errors) >= 100
        assert {
            "unterminated block comment", "unterminated string literal",
            "newline in string literal", "bare '$'",
            "malformed based literal", "based literal has no digits",
            "unexpected character \"'\"",
        } <= messages


if __name__ == "__main__":
    entries = {name: golden_entry(source)
               for name, source in golden_inputs().items()}
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(entries, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(entries)} entries to {GOLDEN_PATH}")
