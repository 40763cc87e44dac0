"""Tests for the Verilog tokenizer (repro.verilog.lexer)."""

import pytest

from repro.verilog import LexError, tokenize


def kinds(source):
    return [t.kind for t in tokenize(source)[:-1]]  # drop EOF


def texts(source):
    return [t.text for t in tokenize(source)[:-1]]


class TestBasics:
    def test_empty_source_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind == "EOF"

    def test_keywords_recognized(self):
        assert kinds("module endmodule always begin end") == ["KEYWORD"] * 5

    def test_identifiers(self):
        tokens = tokenize("foo _bar baz2 a$b")
        assert [t.kind for t in tokens[:-1]] == ["ID"] * 4

    def test_escaped_identifier(self):
        tokens = tokenize(r"\my+net ")
        assert tokens[0].kind == "ID"
        assert tokens[0].text == "my+net"

    def test_sysid(self):
        tokens = tokenize("$display $finish")
        assert all(t.kind == "SYSID" for t in tokens[:-1])

    def test_bare_dollar_rejected(self):
        with pytest.raises(LexError):
            tokenize("$ ")

    def test_line_column_tracking(self):
        tokens = tokenize("a\n  b")
        assert tokens[0].line == 1
        assert tokens[1].line == 2
        assert tokens[1].column == 3


class TestComments:
    def test_line_comment_skipped(self):
        assert texts("a // comment here\nb") == ["a", "b"]

    def test_block_comment_skipped(self):
        assert texts("a /* x\ny */ b") == ["a", "b"]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("/* never closed")

    def test_directive_skipped_to_eol(self):
        assert texts("`timescale 1ns/1ps\nmodule") == ["module"]

    def test_line_numbers_after_block_comment(self):
        tokens = tokenize("/* a\nb\nc */ x")
        assert tokens[0].line == 3


class TestNumbers:
    def test_plain_decimal(self):
        token = tokenize("42")[0]
        assert token.kind == "NUMBER"
        assert token.meta == (42,)

    def test_underscore_in_decimal(self):
        assert tokenize("1_000")[0].meta == (1000,)

    def test_sized_hex(self):
        token = tokenize("8'hFF")[0]
        assert token.kind == "BASED_NUMBER"
        assert token.meta == (8, "h", "FF", False)

    def test_sized_binary(self):
        assert tokenize("4'b1010")[0].meta == (4, "b", "1010", False)

    def test_sized_decimal(self):
        assert tokenize("4'd12")[0].meta == (4, "d", "12", False)

    def test_sized_octal(self):
        assert tokenize("6'o77")[0].meta == (6, "o", "77", False)

    def test_signed_literal(self):
        assert tokenize("8'shFF")[0].meta == (8, "h", "FF", True)

    def test_unsized_based(self):
        assert tokenize("'b101")[0].meta == (None, "b", "101", False)

    def test_x_and_z_digits(self):
        assert tokenize("4'b1x0z")[0].meta == (4, "b", "1x0z", False)

    def test_underscores_in_based(self):
        assert tokenize("16'hDE_AD")[0].meta == (16, "h", "DEAD", False)

    def test_size_with_space_before_base(self):
        token = tokenize("4 'd12")[0]
        assert token.kind == "BASED_NUMBER"
        assert token.meta == (4, "d", "12", False)

    def test_based_without_digits_rejected(self):
        with pytest.raises(LexError):
            tokenize("4'h ;")


class TestStrings:
    def test_simple_string(self):
        token = tokenize('"hello"')[0]
        assert token.kind == "STRING"
        assert token.text == '"hello"'

    def test_string_with_escape(self):
        token = tokenize(r'"a\"b"')[0]
        assert token.kind == "STRING"

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize('"oops')

    def test_newline_in_string_rejected(self):
        with pytest.raises(LexError):
            tokenize('"a\nb"')


class TestOperators:
    def test_maximal_munch_shifts(self):
        assert texts("a <<< b >>> c") == ["a", "<<<", "b", ">>>", "c"]

    def test_case_equality(self):
        assert texts("a === b !== c") == ["a", "===", "b", "!==", "c"]

    def test_le_vs_shift(self):
        assert texts("a <= b << c") == ["a", "<=", "b", "<<", "c"]

    def test_reduction_prefixes(self):
        assert texts("~& ~| ~^") == ["~&", "~|", "~^"]

    def test_punctuation(self):
        assert texts("( ) [ ] { } ; , . # @ ? :") == [
            "(", ")", "[", "]", "{", "}", ";", ",", ".", "#", "@", "?", ":",
        ]

    def test_unknown_character_rejected(self):
        with pytest.raises(LexError):
            tokenize("a £ b")


class TestRealWorld:
    def test_module_header(self):
        source = "module counter(input clk, output reg [3:0] q);"
        token_kinds = kinds(source)
        assert token_kinds[0] == "KEYWORD"
        assert "OP" in token_kinds

    def test_always_block(self):
        source = "always @(posedge clk) q <= q + 4'd1;"
        token_texts = texts(source)
        assert "posedge" in token_texts
        assert "<=" in token_texts

    def test_token_count_stable(self):
        source = "assign out = sel ? b : a;"
        assert len(tokenize(source)) == 10  # 9 tokens + EOF


class TestTokenValues:
    def test_equality_and_hash(self):
        first = tokenize("a = 8'hFF;")
        second = tokenize("a = 8'hFF;")
        assert first == second
        assert {*first} == {*second}
        assert first[0] != tokenize("b")[0]
        assert first[0] != ("ID", "a", 1, 1, None)

    def test_repr(self):
        assert repr(tokenize("  foo")[0]) == "ID('foo'@1:3)"


class TestFirstLine:
    def test_lines_start_at_first_line(self):
        tokens = tokenize("a\n  b", first_line=10)
        assert [(t.line, t.column) for t in tokens] == [
            (10, 1), (11, 3), (11, 4),
        ]

    def test_errors_report_offset_lines(self):
        with pytest.raises(LexError) as info:
            tokenize("a\n\n  $ b", first_line=5)
        assert (info.value.line, info.value.column) == (7, 3)


class TestScannerConventions:
    def test_eof_column_after_trailing_line_comment(self):
        assert tokenize("a  // note")[-1].column == 4

    def test_escaped_newline_in_string_keeps_line(self):
        tokens = tokenize('"a\\\nb" c\nd')
        assert [(t.text, t.line) for t in tokens[:-1]] == [
            ('"a\\\nb"', 1), ("c", 1), ("d", 2),
        ]
        assert tokens[1].column == 8

    def test_quote_without_base_is_unexpected(self):
        with pytest.raises(LexError, match="unexpected character \"'\""):
            tokenize("a = 'q;")

    def test_literal_errors_at_literal_start(self):
        for source in ("x = 12  'q;", "x = 12 'h;"):
            with pytest.raises(LexError) as info:
                tokenize(source)
            assert (info.value.line, info.value.column) == (1, 5)


class TestOverLongLiterals:
    def test_plain_decimal(self):
        with pytest.raises(LexError, match="decimal literal too long") as info:
            tokenize("x = " + "9" * 5000 + ";")
        assert (info.value.line, info.value.column) == (1, 5)

    def test_size(self):
        with pytest.raises(LexError, match="literal size too long") as info:
            tokenize("\nx = " + "9" * 5000 + "'d1;")
        assert (info.value.line, info.value.column) == (2, 5)

    def test_long_digits_of_a_sized_literal_still_lex(self):
        token = tokenize("5000'd" + "9" * 5000)[0]
        assert token.meta == (5000, "d", "9" * 5000, False)
