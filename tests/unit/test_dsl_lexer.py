"""Unit tests for the DSL tokenizer."""

import pytest

from repro.dsl.lexer import Token, tokenize
from repro.errors import DSLSyntaxError


class TestTokenize:
    def test_simple_statement(self):
        tokens = tokenize("input K0;")
        kinds = [t.kind for t in tokens]
        assert kinds == ["keyword", "name", "symbol", "eof"]

    def test_keywords_recognised(self):
        tokens = tokenize("input output im end")
        assert all(t.kind == "keyword" for t in tokens[:-1])

    def test_numbers_integer_and_float(self):
        tokens = tokenize("3 2.5 0.125")
        values = [t.value for t in tokens if t.kind == "number"]
        assert values == ["3", "2.5", "0.125"]

    def test_two_char_symbols(self):
        tokens = tokenize("a <= b >= c == d != e")
        symbols = [t.value for t in tokens if t.kind == "symbol"]
        assert symbols == ["<=", ">=", "==", "!="]

    def test_line_comments_skipped(self):
        tokens = tokenize("// a comment\ninput K0;")
        assert tokens[0].value == "input"

    def test_double_slash_is_a_comment_not_an_operator(self):
        tokens = tokenize("a / b // c\nd")
        assert [t.value for t in tokens if t.kind == "symbol"] == ["/"]
        assert [t.value for t in tokens if t.kind == "name"] == ["a", "b", "d"]

    def test_block_comments_skipped(self):
        tokens = tokenize("/* multi\nline */ input K0;")
        assert tokens[0].value == "input"

    def test_unterminated_block_comment(self):
        with pytest.raises(DSLSyntaxError):
            tokenize("/* never closed")

    def test_positions_tracked(self):
        tokens = tokenize("input K0;\nK1 = im(x,y) K0(x,y) end")
        k1 = next(t for t in tokens if t.value == "K1")
        assert k1.line == 2
        assert k1.column == 1

    def test_unexpected_character(self):
        with pytest.raises(DSLSyntaxError):
            tokenize("input K0 @")

    def test_eof_token_present(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind == "eof"

    def test_identifier_with_underscore_and_digits(self):
        tokens = tokenize("stage_2b")
        assert tokens[0] == Token("name", "stage_2b", 1, 1)
