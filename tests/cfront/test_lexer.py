"""Tests for the C tokenizer."""

import copy
import pickle

import pytest

from repro.cfront.errors import LexError
from repro.cfront.lexer import Token, TokenKind, tokenize_text
from repro.cfront.source import Location


def kinds(text):
    return [t.kind for t in tokenize_text(text) if t.kind is not TokenKind.EOF]


def values(text):
    return [t.value for t in tokenize_text(text) if t.kind is not TokenKind.EOF]


class TestBasicTokens:
    def test_identifiers(self):
        assert values("foo _bar b4z") == ["foo", "_bar", "b4z"]

    def test_keywords_lex_as_idents(self):
        # The preprocessor must be able to #define int.
        toks = tokenize_text("int if while")
        assert all(t.kind is TokenKind.IDENT for t in toks[:-1])

    def test_numbers(self):
        assert values("0 42 0x1F 017 1.5 1e10 1.5e-3 0xABu 42L") == [
            "0", "42", "0x1F", "017", "1.5", "1e10", "1.5e-3", "0xABu", "42L",
        ]

    def test_number_kinds(self):
        assert kinds("1 2.5") == [TokenKind.NUMBER, TokenKind.NUMBER]

    def test_strings(self):
        assert values('"hi" "a\\"b" L"wide"') == ['"hi"', '"a\\"b"', 'L"wide"']

    def test_chars(self):
        assert values("'a' '\\n' L'w'") == ["'a'", "'\\n'", "L'w'"]

    def test_eof_is_last(self):
        toks = tokenize_text("x")
        assert toks[-1].kind is TokenKind.EOF


class TestPunctuators:
    def test_three_char(self):
        assert values("<<= >>= ...") == ["<<=", ">>=", "..."]

    def test_two_char(self):
        assert values("-> ++ -- << >> <= >= == != && || += ##") == [
            "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&",
            "||", "+=", "##",
        ]

    def test_maximal_munch(self):
        # +++ lexes as ++ then +
        assert values("a+++b") == ["a", "++", "+", "b"]

    def test_ellipsis_vs_dots(self):
        assert values("... . ..") == ["...", ".", ".", "."]

    def test_arrow_vs_minus(self):
        assert values("a->b a-b") == ["a", "->", "b", "a", "-", "b"]


class TestComments:
    def test_line_comment(self):
        assert values("a // comment\nb") == ["a", "b"]

    def test_block_comment(self):
        assert values("a /* x */ b") == ["a", "b"]

    def test_multiline_block_comment(self):
        assert values("a /* x\ny\nz */ b") == ["a", "b"]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize_text("a /* never ends")

    def test_comment_sets_spaced(self):
        toks = tokenize_text("a/*x*/b")
        assert toks[1].spaced


class TestLineStructure:
    def test_at_line_start(self):
        toks = tokenize_text("a b\nc d")
        flags = [(t.value, t.at_line_start) for t in toks[:-1]]
        assert flags == [("a", True), ("b", False), ("c", True), ("d", False)]

    def test_hash_at_line_start_is_directive(self):
        toks = tokenize_text("#define X 1")
        assert toks[0].kind is TokenKind.HASH

    def test_hash_mid_line_is_punct(self):
        toks = tokenize_text("a # b")
        assert toks[1].kind is TokenKind.PUNCT
        assert toks[1].value == "#"

    def test_hash_after_whitespace_still_directive(self):
        toks = tokenize_text("   #include <x.h>")
        assert toks[0].kind is TokenKind.HASH


class TestSplices:
    def test_backslash_newline_joined(self):
        assert values("ab\\\ncd") == ["abcd"]

    def test_splice_in_directive(self):
        toks = tokenize_text("#define X \\\n 1")
        vals = [t.value for t in toks if t.kind is not TokenKind.EOF]
        assert vals == ["#", "define", "X", "1"]
        # The '1' must not appear to start a new line.
        assert not toks[3].at_line_start

    def test_splice_locations_stay_on_original_lines(self):
        toks = tokenize_text("a\\\nb c")
        # 'b' came from line 2 of the original text.
        assert toks[1].value == "c"

    def test_crlf_splice(self):
        assert values("ab\\\r\ncd") == ["abcd"]


class TestErrors:
    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize_text('"never closed')

    def test_unterminated_char(self):
        with pytest.raises(LexError):
            tokenize_text("'x")

    def test_stray_character(self):
        with pytest.raises(LexError):
            tokenize_text("a ` b")

    def test_error_carries_location(self):
        with pytest.raises(LexError) as exc:
            tokenize_text("ok\n`")
        assert exc.value.location.line == 2


class TestLocations:
    def test_token_locations(self):
        toks = tokenize_text("a\n  b")
        assert toks[0].location.line == 1
        assert toks[1].location.line == 2
        assert toks[1].location.column == 3

    def test_token_helpers(self):
        tok = tokenize_text("(")[0]
        assert tok.is_punct("(")
        assert not tok.is_punct(")")
        ident = tokenize_text("foo")[0]
        assert ident.is_ident()
        assert ident.is_ident("foo")
        assert not ident.is_ident("bar")

    def test_leading_whitespace_is_not_part_of_the_token(self):
        toks = tokenize_text("a \t b+ c\n  # x  ")
        assert [t.value for t in toks] == ["a", "b", "+", "c", "#", "x", ""]
        assert [t.spaced for t in toks] == [False, True, False, True,
                                            True, True, True]
        assert [t.location.column for t in toks] == [1, 5, 6, 8, 3, 5, 8]
        # A directive '#' after indentation still starts its line.
        assert toks[4].kind is TokenKind.HASH and toks[4].at_line_start


#: Every kind with the name and value it had as an Enum member.
KINDS = [
    ("IDENT", "ident"), ("NUMBER", "number"), ("CHAR", "char"),
    ("STRING", "string"), ("PUNCT", "punct"), ("HASH", "hash"),
    ("EOF", "eof"), ("PLACEMARKER", "placemarker"),
]


class TestTokenKinds:
    @pytest.mark.parametrize("name,value", KINDS)
    def test_name_value_repr(self, name, value):
        kind = getattr(TokenKind, name)
        assert kind.name == name
        assert kind.value == value
        assert repr(kind) == f"<TokenKind.{name}: {value!r}>"

    @pytest.mark.parametrize("name", [name for name, _ in KINDS])
    def test_identity_survives_pickle_and_copy(self, name):
        kind = getattr(TokenKind, name)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(kind, protocol)) is kind
        assert copy.copy(kind) is kind
        assert copy.deepcopy(kind) is kind

    def test_pickled_token_keeps_the_singleton(self):
        tok = Token(TokenKind.PUNCT, "+", Location("a.c", 1, 3), spaced=True)
        back = pickle.loads(pickle.dumps(tok))
        assert back.kind is TokenKind.PUNCT
        assert back == tok
        assert copy.deepcopy(tok).kind is TokenKind.PUNCT

    def test_kinds_are_distinct(self):
        kinds = [getattr(TokenKind, name) for name, _ in KINDS]
        assert len(set(map(id, kinds))) == len(KINDS)
        assert TokenKind.IDENT != TokenKind.PUNCT
