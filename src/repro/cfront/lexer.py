"""A C tokenizer.

Tokenizes raw (unpreprocessed) C source into a stream of :class:`Token`.
Keywords are *not* classified here: the preprocessor must be able to treat
``int`` or ``if`` as macro names, so every word lexes as ``IDENT`` and the
parser promotes identifiers to keywords.  Each token records whether it was
preceded by whitespace and whether it starts a logical line — both needed for
correct ``#`` directive recognition and macro stringization.

Backslash-newline splices are handled here, so downstream phases never see
them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import ClassVar

from .errors import LexError
from .source import Location, SourceFile


class TokenKind:
    """A token's kind: one of the eight singletons below, tested with ``is``.

    Not an ``enum.Enum``: on Python 3.11 every read of an Enum member
    through its class (``TokenKind.PUNCT``) goes through the enum
    metaclass's slow attribute hook, at several times the cost of a plain
    class attribute, and the frontend reads kinds on every token.  Each
    kind keeps an Enum member's ``name``, ``value`` and ``repr``, and
    pickles and copies to the same singleton.
    """

    __slots__ = ("name", "value")

    IDENT: ClassVar[TokenKind]
    NUMBER: ClassVar[TokenKind]  # integer or floating pp-number
    CHAR: ClassVar[TokenKind]  # character constant, value includes quotes
    STRING: ClassVar[TokenKind]  # string literal, value includes quotes
    PUNCT: ClassVar[TokenKind]  # operator or punctuator
    HASH: ClassVar[TokenKind]  # '#' at start of a directive line
    EOF: ClassVar[TokenKind]
    #: Produced only inside the preprocessor (never by the lexer).
    PLACEMARKER: ClassVar[TokenKind]

    def __init__(self, name: str, value: str):
        self.name = name
        self.value = value

    def __repr__(self) -> str:
        return f"<TokenKind.{self.name}: {self.value!r}>"

    def __str__(self) -> str:
        return f"TokenKind.{self.name}"

    def __reduce__(self):
        return getattr, (TokenKind, self.name)


for _name in ("IDENT", "NUMBER", "CHAR", "STRING", "PUNCT", "HASH", "EOF",
              "PLACEMARKER"):
    setattr(TokenKind, _name, TokenKind(_name, _name.lower()))
del _name


#: The ``no_expand`` of every token no expansion produced.  Shared, so
#: never mutated: an expansion builds a new set.
_NO_EXPAND: frozenset[str] = frozenset()


@dataclass(slots=True)
class Token:
    kind: TokenKind
    value: str
    location: Location
    #: True when whitespace (or a comment) separated this token from the
    #: previous one.  Needed to reconstruct stringized macro arguments.
    spaced: bool = False
    #: True when this is the first token on a (logical) source line.
    at_line_start: bool = False
    #: Set by the preprocessor on identifiers that must not be re-expanded
    #: (they were produced by expanding the same-named macro).  Every
    #: token shares one empty set until an expansion builds a new one.
    no_expand: frozenset[str] = _NO_EXPAND

    def is_punct(self, value: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.value == value

    def is_ident(self, value: str | None = None) -> bool:
        if self.kind is not TokenKind.IDENT:
            return False
        return value is None or self.value == value

    def __str__(self) -> str:
        return self.value


# All multi-character punctuators, longest first so maximal munch works by
# simple prefix testing.  (Trigraphs and digraphs are not supported; none of
# our inputs use them.)
_PUNCT3 = ("<<=", ">>=", "...")
_PUNCT2 = (
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=",
    "&&", "||", "*=", "/=", "%=", "+=", "-=", "&=", "^=", "|=", "##",
)
_PUNCT1 = set("[](){}.&*+-~!/%<>^|?:;=,#")

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_$")
_IDENT_CONT = _IDENT_START | set("0123456789")
_DIGITS = set("0123456789")


#: One compiled scanner for the whole token grammar.  A match takes the
#: whitespace before a newline, comment or token with it, so a token after
#: a space costs one match, not two; ``WS`` is left for whitespace that no
#: token follows (the end of the file, a stray character), which the first
#: branch backtracks through, trying every shorter run, before ``WS`` takes
#: it: linear, but dearer per character than ordinary text.  Alternation
#: order matters: comments before punctuation (``/*`` vs ``/``),
#: string/char literals before identifiers (``L"..."`` vs the identifier
#: ``L``), multi-character punctuators via the longest-first list.
_MASTER = re.compile(
    r"""
      [ \t\r\f\v]*
      (?:
        (?P<NL>\n)
      | (?P<COMMENT>/\*.*?\*/|//[^\n]*)
      | (?P<STRING>L?"(?:\\.|[^"\\\n])*")
      | (?P<CHAR>L?'(?:\\.|[^'\\\n])*')
      | (?P<IDENT>[A-Za-z_$][A-Za-z_$0-9]*)
      | (?P<NUMBER>\.?[0-9](?:[eEpP][+-]|[0-9A-Za-z_.])*)
      | (?P<PUNCT><<=|>>=|\.\.\.
          |->|\+\+|--|<<|>>|<=|>=|==|!=|&&|\|\||\*=|/=|%=|\+=|-=|&=|\^=|\|=|\#\#
          |[][(){}.&*+~!/%<>^|?:;=,#-])
      )
    | (?P<WS>[ \t\r\f\v]+)
    """,
    re.VERBOSE | re.DOTALL,
)

#: The kind of the token each group lexes; whitespace, newlines and
#: comments lex none.
_KIND_BY_GROUP = {
    "STRING": TokenKind.STRING,
    "CHAR": TokenKind.CHAR,
    "IDENT": TokenKind.IDENT,
    "NUMBER": TokenKind.NUMBER,
    "PUNCT": TokenKind.PUNCT,
}


def _splice_continuations(text: str) -> tuple[str, list[int] | None]:
    """Remove backslash-newline splices.

    Returns the spliced text and a map from spliced offsets back to original
    offsets (as a list ``orig_offset[spliced_offset]``), so locations stay
    accurate even inside spliced lines.  A text without splices is returned
    as is, with no map.
    """
    if "\\\n" not in text and "\\\r\n" not in text:
        return text, None
    out: list[str] = []
    mapping: list[int] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\\" and i + 1 < n and text[i + 1] == "\n":
            i += 2
            continue
        if ch == "\\" and i + 2 < n and text[i + 1] == "\r" and text[i + 2] == "\n":
            i += 3
            continue
        out.append(ch)
        mapping.append(i)
        i += 1
    mapping.append(n)
    return "".join(out), mapping


class Lexer:
    """Tokenizes one :class:`SourceFile`."""

    def __init__(self, source: SourceFile, tolerant: bool = False):
        self.source = source
        #: Tolerant mode: stray characters become PUNCT tokens instead of
        #: raising, so the parser's recovery can skip past them.
        self.tolerant = tolerant
        self._text, self._offset_map = _splice_continuations(source.text)
        self._pos = 0
        self._at_line_start = True
        self._spaced = False
        self._line_cursor = 0

    def _location(self, spliced_pos: int | None = None) -> Location:
        pos = min(self._pos if spliced_pos is None else spliced_pos,
                  len(self._text))
        offset = pos if self._offset_map is None else self._offset_map[pos]
        # Tokens are produced in source order, so a monotonic cursor over
        # the line-start table beats a binary search per token.  Error
        # paths may look backwards; fall back to the bisect there.
        starts = self.source._ensure_line_starts()
        cursor = self._line_cursor
        if offset >= starts[cursor]:
            n = len(starts)
            while cursor + 1 < n and starts[cursor + 1] <= offset:
                cursor += 1
            self._line_cursor = cursor
            return Location(self.source.filename, cursor + 1,
                            offset - starts[cursor] + 1)
        return self.source.location_at(offset)

    def tokens(self) -> list[Token]:
        """Tokenize the whole file, ending with one EOF token.

        Driven by one compiled regex, one match per token: a match takes
        the whitespace before its token with it, and the token is spaced
        when it does not start where the match does.  The scan counts
        lines as it goes: a newline starts the next line and a block
        comment adds the newlines it spans, so a token's location is its
        line and its offset from the line's start.  In a file with
        backslash-newline splices those offsets are into the spliced text,
        so locations go through `_location`'s offset map instead.  The character-level scanner
        below (`_next_token`) is kept as the reference implementation and
        for the error paths the regex cannot classify.
        """
        text = self._text
        n = len(text)
        filename = self.source.filename
        spliced = self._offset_map is not None
        result: list[Token] = []
        append = result.append
        scan = _MASTER.match
        kind_of = _KIND_BY_GROUP.get
        pos = 0
        line = 1
        line_start = 0
        at_line_start = True
        spaced = False
        while pos < n:
            m = scan(text, pos)
            if m is None:
                # A stray character or a broken literal: the reference
                # scanner raises or tolerantly lexes one character.  It
                # skips nothing first, since the regex matches whatever
                # it could skip, so the line count stays right.
                self._pos = pos
                self._at_line_start = at_line_start
                self._spaced = spaced
                append(self._next_token())
                pos = self._pos
                at_line_start = self._at_line_start
                spaced = self._spaced
                continue
            group = m.lastgroup
            end = m.end()
            if group == "WS":
                spaced = True
                pos = end
                continue
            kind = kind_of(group)
            if kind is None:
                if group == "NL":
                    line += 1
                    line_start = end
                    at_line_start = True
                    spaced = False
                else:  # a comment; a block comment may span lines
                    newlines = text.count("\n", pos, end)
                    if newlines:
                        line += newlines
                        line_start = text.rfind("\n", pos, end) + 1
                    spaced = True
                pos = end
                continue
            # The match may begin with whitespace: the token starts where
            # its own group does.
            value = m.group(group)
            start = end - len(value)
            if kind is TokenKind.PUNCT:
                if value == "/" and text.startswith("/*", start):
                    raise LexError("unterminated /* comment",
                                   self._location(start))
                if value == "#" and at_line_start:
                    kind = TokenKind.HASH
            append(Token(kind, value,
                         self._location(start) if spliced
                         else Location(filename, line, start - line_start + 1),
                         spaced or start != pos, at_line_start))
            at_line_start = False
            spaced = False
            pos = end
        self._pos = n
        append(Token(TokenKind.EOF, "",
                     self._location(n) if spliced
                     else Location(filename, line, n - line_start + 1),
                     spaced, at_line_start))
        return result

    def tokens_reference(self) -> list[Token]:
        """The original character-level scanner (kept for differential
        testing against the regex-driven fast path)."""
        result: list[Token] = []
        while True:
            tok = self._next_token()
            result.append(tok)
            if tok.kind is TokenKind.EOF:
                return result

    # -- scanning helpers ---------------------------------------------------

    def _skip_whitespace_and_comments(self) -> None:
        text = self._text
        n = len(text)
        while self._pos < n:
            ch = text[self._pos]
            if ch == "\n":
                self._at_line_start = True
                self._spaced = False
                self._pos += 1
            elif ch in " \t\r\f\v":
                self._spaced = True
                self._pos += 1
            elif ch == "/" and self._pos + 1 < n and text[self._pos + 1] == "*":
                start = self._pos
                end = text.find("*/", self._pos + 2)
                if end == -1:
                    raise LexError("unterminated /* comment", self._location(start))
                # A comment is whitespace, newlines included: it does not
                # start a line for directive purposes (cpp behaves so).
                self._spaced = True
                self._pos = end + 2
            elif ch == "/" and self._pos + 1 < n and text[self._pos + 1] == "/":
                end = text.find("\n", self._pos)
                self._pos = n if end == -1 else end
                self._spaced = True
            else:
                return

    def _next_token(self) -> Token:
        self._skip_whitespace_and_comments()
        text = self._text
        n = len(text)
        if self._pos >= n:
            return self._make(TokenKind.EOF, "", self._pos)
        start = self._pos
        ch = text[start]

        if ch in _IDENT_START:
            # Wide literals: L"..." / L'...' — the prefix is part of the
            # literal, not an identifier.
            if ch == "L" and start + 1 < n and text[start + 1] in "\"'":
                if text[start + 1] == '"':
                    return self._lex_string(start)
                return self._lex_char(start)
            i = start + 1
            while i < n and text[i] in _IDENT_CONT:
                i += 1
            self._pos = i
            return self._make(TokenKind.IDENT, text[start:i], start)

        if ch in _DIGITS or (ch == "." and start + 1 < n and text[start + 1] in _DIGITS):
            return self._lex_number(start)

        if ch == '"' or (ch == "L" and start + 1 < n and text[start + 1] == '"'):
            return self._lex_string(start)

        if ch == "'" or (ch == "L" and start + 1 < n and text[start + 1] == "'"):
            return self._lex_char(start)

        # Punctuators, maximal munch.
        for group in (_PUNCT3, _PUNCT2):
            for p in group:
                if text.startswith(p, start):
                    self._pos = start + len(p)
                    return self._make(TokenKind.PUNCT, p, start)
        if ch in _PUNCT1:
            self._pos = start + 1
            if ch == "#" and self._at_line_start:
                return self._make(TokenKind.HASH, "#", start)
            return self._make(TokenKind.PUNCT, ch, start)

        if self.tolerant:
            self._pos = start + 1
            return self._make(TokenKind.PUNCT, ch, start)
        raise LexError(f"stray character {ch!r}", self._location(start))

    def _lex_number(self, start: int) -> Token:
        # pp-number: digits, letters, dots, and exponent signs.  This accepts
        # a superset of valid C constants; the parser validates the ones it
        # evaluates.
        text = self._text
        n = len(text)
        i = start + 1
        while i < n:
            ch = text[i]
            if ch in _IDENT_CONT or ch == ".":
                i += 1
            elif ch in "+-" and text[i - 1] in "eEpP":
                i += 1
            else:
                break
        self._pos = i
        return self._make(TokenKind.NUMBER, text[start:i], start)

    def _lex_string(self, start: int) -> Token:
        text = self._text
        n = len(text)
        i = start + (2 if text[start] == "L" else 1)
        while i < n:
            ch = text[i]
            if ch == "\\":
                i += 2
                continue
            if ch == '"':
                self._pos = i + 1
                return self._make(TokenKind.STRING, text[start:i + 1], start)
            if ch == "\n":
                break
            i += 1
        raise LexError("unterminated string literal", self._location(start))

    def _lex_char(self, start: int) -> Token:
        text = self._text
        n = len(text)
        i = start + (2 if text[start] == "L" else 1)
        while i < n:
            ch = text[i]
            if ch == "\\":
                i += 2
                continue
            if ch == "'":
                self._pos = i + 1
                return self._make(TokenKind.CHAR, text[start:i + 1], start)
            if ch == "\n":
                break
            i += 1
        raise LexError("unterminated character constant", self._location(start))

    def _make(self, kind: TokenKind, value: str, start: int) -> Token:
        tok = Token(kind, value, self._location(start), self._spaced,
                    self._at_line_start)
        self._at_line_start = False
        self._spaced = False
        return tok


def tokenize(source: SourceFile) -> list[Token]:
    """Tokenize a source file (convenience wrapper)."""
    return Lexer(source).tokens()


def tokenize_text(text: str, filename: str = "<string>") -> list[Token]:
    """Tokenize a string of C source."""
    return Lexer(SourceFile(filename, text)).tokens()
