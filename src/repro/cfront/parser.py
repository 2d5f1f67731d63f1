"""A recursive-descent parser for C.

Covers C89 plus the C99/GNU features that real code bases rely on:
``//`` comments (lexer), mixed declarations and code, ``long long``,
flexible array members, compound literals, designated initializers
(flattened), ``inline``/``restrict``, and ``__attribute__``/``__extension__``
(parsed and discarded).  K&R-style function definitions are accepted.

The classic declaration/expression ambiguity is resolved with a scoped
typedef table, exactly as production C compilers do.

The parser is deliberately *tolerant where the analysis permits*: constructs
whose precise semantics the flow-insensitive value analysis ignores (e.g.
bit-field widths, array sizes it cannot fold) degrade gracefully instead of
failing the translation unit — the paper's tool must digest million-line
legacy code bases.
"""

from __future__ import annotations

import functools

from . import cast as A
from .ctypes import (
    ArrayType,
    CType,
    EnumType,
    Field,
    FloatType,
    FunctionType,
    IntType,
    Param,
    PointerType,
    StructType,
    UnionType,
    VoidType,
    fresh_anon_tag,
    with_qualifiers,
)
from .errors import ParseError
from .lexer import Token, TokenKind
from .preprocessor import char_constant_value, parse_int_constant
from .source import Location

KEYWORDS = {
    "auto", "break", "case", "char", "const", "continue", "default", "do",
    "double", "else", "enum", "extern", "float", "for", "goto", "if",
    "inline", "int", "long", "register", "restrict", "return", "short",
    "signed", "sizeof", "static", "struct", "switch", "typedef", "union",
    "unsigned", "void", "volatile", "while", "_Bool",
}

_STORAGE_CLASSES = {"typedef", "extern", "static", "auto", "register"}
_TYPE_QUALIFIERS = {
    "const", "volatile", "restrict", "__const", "__restrict", "__restrict__",
    "__volatile__", "_Atomic",
}
_FUNCTION_SPECIFIERS = {"inline", "__inline", "__inline__", "_Noreturn"}
_BASE_TYPE_WORDS = {
    "void", "char", "short", "int", "long", "float", "double", "signed",
    "unsigned", "_Bool", "__builtin_va_list",
}
_GNU_NOISE = {"__extension__", "__signed__"}
#: GNU words that take a parenthesised argument, skipped with it.
_GNU_ATTRIBUTES = {
    "__attribute__", "__attribute", "__asm__", "__asm", "asm", "__declspec",
}
_NOISE_WORDS = frozenset(_GNU_NOISE | _GNU_ATTRIBUTES)
#: Words that start a parameter declaration, not a parenthesised
#: declarator.
_DECL_START_WORDS = frozenset(
    _STORAGE_CLASSES | _TYPE_QUALIFIERS | _BASE_TYPE_WORDS
    | {"struct", "union", "enum"}
)

#: Binary operator precedence (C, higher binds tighter).
_BINOP_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "<<=", ">>=", "&=", "^=", "|="}


class _Scope:
    """One lexical scope: ordinary names (with typedef flags) and tags."""

    __slots__ = ("names", "tags", "enum_constants")

    def __init__(self):
        self.names: dict[str, CType | None] = {}  # value = type iff typedef
        self.tags: dict[str, CType] = {}
        self.enum_constants: dict[str, int] = {}


class Parser:
    def __init__(self, tokens: list[Token], filename: str = "<unit>",
                 tolerant: bool = False):
        if not tokens or tokens[-1].kind is not TokenKind.EOF:
            raise ValueError("the token list must end in an EOF token")
        #: Ends in EOF, and ``pos`` never passes it: the current token is
        #: always ``tokens[pos]``.
        self.tokens = tokens
        self.pos = 0
        self.filename = filename
        self.scopes: list[_Scope] = [_Scope()]
        self.current_function: str | None = None
        #: Tolerant mode: external declarations that fail to parse are
        #: skipped (panic-mode recovery to the next ';' or balanced '}')
        #: and recorded as diagnostics — million-line legacy code bases
        #: always contain a few constructs nobody anticipates, and the
        #: paper's deployed tool could not afford to die on them.
        self.tolerant = tolerant
        self.diagnostics: list[ParseError] = []

    # ------------------------------------------------------------------
    # Token plumbing
    # ------------------------------------------------------------------

    def _peek(self, ahead: int) -> Token:
        """Look ``ahead`` tokens past the current one (EOF past the end)."""
        i = self.pos + ahead
        if i >= len(self.tokens):
            return self.tokens[-1]  # EOF
        return self.tokens[i]

    def _advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokenKind.EOF:
            self.pos += 1
        return tok

    def _check_punct(self, value: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.value == value and tok.kind is TokenKind.PUNCT

    def _accept_punct(self, value: str) -> bool:
        tok = self.tokens[self.pos]
        if tok.value == value and tok.kind is TokenKind.PUNCT:
            self.pos += 1
            return True
        return False

    def _expect_punct(self, value: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.value != value or tok.kind is not TokenKind.PUNCT:
            raise ParseError(
                f"expected {value!r}, found {tok.value!r}", tok.location
            )
        self.pos += 1
        return tok

    def _check_kw(self, word: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.value == word and tok.kind is TokenKind.IDENT

    def _accept_kw(self, word: str) -> bool:
        if self._check_kw(word):
            self.pos += 1
            return True
        return False

    def _expect_kw(self, word: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.value != word or tok.kind is not TokenKind.IDENT:
            raise ParseError(
                f"expected {word!r}, found {tok.value!r}", tok.location
            )
        self.pos += 1
        return tok

    def _expect_ident(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokenKind.IDENT or tok.value in KEYWORDS:
            raise ParseError(
                f"expected identifier, found {tok.value!r}", tok.location
            )
        self.pos += 1
        return tok

    # ------------------------------------------------------------------
    # Scopes
    # ------------------------------------------------------------------

    def _push_scope(self) -> None:
        self.scopes.append(_Scope())

    def _pop_scope(self) -> None:
        self.scopes.pop()

    def _declare(self, name: str, typedef_type: CType | None) -> None:
        self.scopes[-1].names[name] = typedef_type

    def _lookup_typedef(self, name: str) -> CType | None:
        for scope in reversed(self.scopes):
            if name in scope.names:
                return scope.names[name]
        return None

    def _is_typedef_name(self, tok: Token) -> bool:
        if tok.kind is not TokenKind.IDENT or tok.value in KEYWORDS:
            return False
        return self._lookup_typedef(tok.value) is not None

    def _lookup_tag(self, tag: str) -> CType | None:
        for scope in reversed(self.scopes):
            if tag in scope.tags:
                return scope.tags[tag]
        return None

    def _declare_tag(self, tag: str, t: CType) -> None:
        self.scopes[-1].tags[tag] = t

    def _declare_enum_constant(self, name: str, value: int) -> None:
        self.scopes[-1].enum_constants[name] = value
        self._declare(name, None)

    def _lookup_enum_constant(self, name: str) -> int | None:
        for scope in reversed(self.scopes):
            if name in scope.enum_constants:
                return scope.enum_constants[name]
        return None

    # ------------------------------------------------------------------
    # GNU noise
    # ------------------------------------------------------------------

    def _skip_gnu_noise(self) -> None:
        tokens = self.tokens
        while True:
            tok = tokens[self.pos]
            if tok.value not in _NOISE_WORDS or tok.kind is not TokenKind.IDENT:
                return
            self.pos += 1
            if tok.value in _GNU_ATTRIBUTES and self._check_punct("("):
                self._skip_balanced_parens()

    def _skip_balanced_parens(self) -> None:
        depth = 0
        while True:
            tok = self._advance()
            if tok.kind is TokenKind.EOF:
                raise ParseError("unbalanced parentheses", tok.location)
            if tok.kind is TokenKind.PUNCT:
                if tok.value == "(":
                    depth += 1
                elif tok.value == ")":
                    depth -= 1
                    if depth == 0:
                        return

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def parse_translation_unit(self) -> A.TranslationUnit:
        unit = A.TranslationUnit(
            filename=self.filename,
            location=Location(self.filename, 1),
        )
        while self.tokens[self.pos].kind is not TokenKind.EOF:
            if self._accept_punct(";"):
                continue  # stray semicolon at file scope
            if not self.tolerant:
                unit.items.extend(self._parse_external_declaration())
                continue
            start = self.pos
            try:
                unit.items.extend(self._parse_external_declaration())
            except ParseError as error:
                self.diagnostics.append(error)
                self._recover_to_top_level(start)
        unit.diagnostics = list(self.diagnostics)
        return unit

    def _recover_to_top_level(self, failed_start: int) -> None:
        """Panic-mode recovery: skip past the broken declaration.

        Consumes at least one token, then skips to just after the next
        top-level ';' or a balanced '}' — the two ways an external
        declaration can end.
        """
        if self.pos == failed_start:
            self._advance()
        # Only brace depth gates the stop points: a stray unbalanced '('
        # in the broken declaration must not swallow the rest of the file
        # (';' cannot legally occur inside parentheses at file scope).
        braces = 0
        consumed = 0
        while True:
            tok = self.tokens[self.pos]
            if tok.kind is TokenKind.EOF:
                return
            # Sync point: a declaration starter at the beginning of a line
            # very likely begins the next healthy external declaration.
            # Brace counting alone cannot be trusted — the error left us at
            # unknown depth and the broken region may itself be unbalanced
            # — so this fires regardless of depth.  Worst case we resync
            # inside a body and produce a few cascade diagnostics, which is
            # the classic panic-mode trade-off.
            if (
                consumed > 0
                and tok.at_line_start
                and self._starts_declaration(tok)
            ):
                return
            if tok.kind is TokenKind.PUNCT:
                if tok.value == "{":
                    braces += 1
                elif tok.value == "}":
                    self._advance()
                    consumed += 1
                    if braces <= 1:
                        return
                    braces -= 1
                    continue
                elif tok.value == ";" and braces == 0:
                    self._advance()
                    return
            self._advance()
            consumed += 1

    def _parse_external_declaration(self) -> list[A.Decl | A.FunctionDef]:
        self._skip_gnu_noise()
        start = self.tokens[self.pos].location
        specs = self._parse_declaration_specifiers()
        if specs is None:
            raise ParseError(
                f"expected declaration, found {self.tokens[self.pos].value!r}", start
            )
        base_type, storage = specs
        if self._accept_punct(";"):
            return []  # pure type declaration: struct S {...};
        name, dtype, param_decls = self._parse_declarator(base_type)
        self._skip_gnu_noise()

        # Function definition?
        if isinstance(dtype, FunctionType) and (
            self._check_punct("{") or self._at_knr_param_decls(dtype)
        ):
            return [self._parse_function_definition(
                name, dtype, storage, param_decls, start
            )]

        # Otherwise an init-declarator list.
        items: list[A.Decl | A.FunctionDef] = []
        items.append(self._finish_init_declarator(name, dtype, storage, start))
        while self._accept_punct(","):
            self._skip_gnu_noise()
            name, dtype, _ = self._parse_declarator(base_type)
            self._skip_gnu_noise()
            items.append(
                self._finish_init_declarator(name, dtype, storage, start)
            )
        self._expect_punct(";")
        return items

    def _finish_init_declarator(
        self,
        name: str | None,
        dtype: CType,
        storage: str | None,
        start: Location,
    ) -> A.Decl:
        if name is None:
            raise ParseError("declarator requires a name", start)
        init: A.Expr | None = None
        if self._accept_punct("="):
            init = self._parse_initializer()
        decl = A.Decl(
            name=name,
            type=dtype,
            storage=storage,
            init=init,
            enclosing_function=self.current_function,
            location=start,
        )
        self._declare(name, dtype if storage == "typedef" else None)
        return decl

    def _at_knr_param_decls(self, dtype: FunctionType) -> bool:
        """After ``f(a, b)`` in a K&R definition, parameter declarations
        follow before the body brace."""
        if not dtype.unspecified_params:
            return False
        tok = self.tokens[self.pos]
        return self._starts_declaration(tok)

    def _parse_function_definition(
        self,
        name: str | None,
        ftype: FunctionType,
        storage: str | None,
        param_decls: list[A.Decl],
        start: Location,
    ) -> A.FunctionDef:
        if name is None:
            raise ParseError("function definition requires a name", start)
        self._declare(name, None)
        # K&R: parse the old-style parameter declaration list.
        if ftype.unspecified_params and not self._check_punct("{"):
            knr_types: dict[str, CType] = {}
            while not self._check_punct("{"):
                specs = self._parse_declaration_specifiers()
                if specs is None:
                    raise ParseError(
                        "expected K&R parameter declaration",
                        self.tokens[self.pos].location,
                    )
                base, _ = specs
                while True:
                    pname, ptype, _ = self._parse_declarator(base)
                    if pname:
                        knr_types[pname] = ptype
                    if not self._accept_punct(","):
                        break
                self._expect_punct(";")
            new_params = tuple(
                Param(p.name, knr_types.get(p.name or "", p.type))
                for p in ftype.params
            )
            ftype = FunctionType(
                ftype.return_type, new_params, ftype.variadic, False
            )
            param_decls = [
                A.Decl(p.name or "", p.type, enclosing_function=name,
                       location=start)
                for p in new_params
            ]
        previous_function = self.current_function
        self.current_function = name
        self._push_scope()
        for p in param_decls:
            if p.name:
                self._declare(p.name, None)
        try:
            body = self._parse_compound_statement()
        finally:
            self._pop_scope()
            self.current_function = previous_function
        return A.FunctionDef(
            name=name,
            type=ftype,
            storage=storage,
            params=param_decls,
            body=body,
            location=start,
        )

    # ------------------------------------------------------------------
    # Declaration specifiers
    # ------------------------------------------------------------------

    def _starts_declaration(self, tok: Token) -> bool:
        if tok.kind is not TokenKind.IDENT:
            return False
        word = tok.value
        if (
            word in _STORAGE_CLASSES
            or word in _TYPE_QUALIFIERS
            or word in _FUNCTION_SPECIFIERS
            or word in _BASE_TYPE_WORDS
            or word in ("struct", "union", "enum")
            or word in _GNU_NOISE
        ):
            return True
        return self._is_typedef_name(tok)

    def _parse_declaration_specifiers(
        self,
    ) -> tuple[CType, str | None] | None:
        """Parse storage-class + type specifiers + qualifiers.

        Returns ``(type, storage)`` or None if no specifier is present.
        """
        storage: str | None = None
        qualifiers: set[str] = set()
        base_words: list[str] = []
        tagged: CType | None = None
        typedef_type: CType | None = None
        saw_any = False

        while True:
            self._skip_gnu_noise()
            tok = self.tokens[self.pos]
            if tok.kind is not TokenKind.IDENT:
                break
            word = tok.value
            if word in _STORAGE_CLASSES:
                if storage is not None and storage != word:
                    raise ParseError(
                        f"multiple storage classes ({storage}, {word})",
                        tok.location,
                    )
                storage = word
                self.pos += 1
            elif word in _TYPE_QUALIFIERS:
                qualifiers.add(word.strip("_"))
                self.pos += 1
            elif word in _FUNCTION_SPECIFIERS:
                self.pos += 1
            elif word in ("struct", "union"):
                tagged = self._parse_struct_or_union_specifier()
            elif word == "enum":
                tagged = self._parse_enum_specifier()
            elif word in _BASE_TYPE_WORDS:
                base_words.append(word)
                self.pos += 1
            elif (
                typedef_type is None
                and tagged is None
                and not base_words
                and self._is_typedef_name(tok)
            ):
                typedef_type = self._lookup_typedef(word)
                self.pos += 1
            else:
                break
            saw_any = True

        if not saw_any:
            return None
        if tagged is not None:
            return with_qualifiers(tagged, qualifiers), storage
        if typedef_type is not None:
            return with_qualifiers(typedef_type, qualifiers), storage
        return _base_type(frozenset(base_words), base_words.count("long") > 1,
                          frozenset(qualifiers)), storage

    # ------------------------------------------------------------------
    # struct / union / enum specifiers
    # ------------------------------------------------------------------

    def _parse_struct_or_union_specifier(self) -> CType:
        kw = self._advance()  # struct / union
        is_union = kw.value == "union"
        self._skip_gnu_noise()
        tag: str | None = None
        tok = self.tokens[self.pos]
        if tok.kind is TokenKind.IDENT and tok.value not in KEYWORDS:
            tag = tok.value
            self.pos += 1
            self._skip_gnu_noise()

        cls = UnionType if is_union else StructType
        if self._check_punct("{"):
            if tag is not None:
                existing = self._lookup_tag_local_or_new(tag, cls)
            else:
                existing = cls(tag=fresh_anon_tag(cls.kind_name))
            self._advance()  # '{'
            existing.fields = self._parse_struct_declaration_list()
            self._expect_punct("}")
            self._skip_gnu_noise()
            return existing
        if tag is None:
            raise ParseError(
                f"{kw.value} specifier needs a tag or a body", kw.location
            )
        found = self._lookup_tag(tag)
        if isinstance(found, cls):
            return found
        # Forward reference: create an incomplete type in the current scope.
        t = cls(tag=tag)
        self._declare_tag(tag, t)
        return t

    def _lookup_tag_local_or_new(self, tag: str, cls: type) -> StructType:
        current = self.scopes[-1].tags.get(tag)
        if isinstance(current, cls) and not current.is_complete:
            return current
        t = cls(tag=tag)
        self._declare_tag(tag, t)
        return t

    def _parse_struct_declaration_list(self) -> list[Field]:
        fields: list[Field] = []
        while not self._check_punct("}"):
            if self._accept_punct(";"):
                continue
            self._skip_gnu_noise()
            specs = self._parse_declaration_specifiers()
            if specs is None:
                raise ParseError(
                    f"expected field declaration, found "
                    f"{self.tokens[self.pos].value!r}",
                    self.tokens[self.pos].location,
                )
            base, _ = specs
            if self._accept_punct(";"):
                # Anonymous struct/union member (C11) or stray tag decl.
                if isinstance(base, (StructType, UnionType)):
                    fields.append(Field(name="", type=base))
                continue
            while True:
                if self._check_punct(":"):
                    # Unnamed bit-field.
                    self._advance()
                    width = self._fold_constant(self._parse_conditional())
                    fields.append(Field("", base, width))
                else:
                    name, ftype, _ = self._parse_declarator(base)
                    width = None
                    if self._accept_punct(":"):
                        width = self._fold_constant(self._parse_conditional())
                    fields.append(Field(name or "", ftype, width))
                self._skip_gnu_noise()
                if not self._accept_punct(","):
                    break
            self._expect_punct(";")
        return fields

    def _parse_enum_specifier(self) -> CType:
        kw = self._expect_kw("enum")
        self._skip_gnu_noise()
        tag: str | None = None
        tok = self.tokens[self.pos]
        if tok.kind is TokenKind.IDENT and tok.value not in KEYWORDS:
            tag = tok.value
            self.pos += 1
        if self._accept_punct("{"):
            t = EnumType(tag=tag or fresh_anon_tag("enum"))
            next_value = 0
            while not self._check_punct("}"):
                name_tok = self._expect_ident()
                if self._accept_punct("="):
                    expr = self._parse_conditional()
                    folded = self._fold_constant(expr)
                    next_value = folded if folded is not None else next_value
                t.enumerators.append((name_tok.value, next_value))
                self._declare_enum_constant(name_tok.value, next_value)
                next_value += 1
                if not self._accept_punct(","):
                    break
            self._expect_punct("}")
            if tag is not None:
                self._declare_tag(tag, t)
            return t
        if tag is None:
            raise ParseError("enum specifier needs a tag or body", kw.location)
        found = self._lookup_tag(tag)
        if isinstance(found, EnumType):
            return found
        t = EnumType(tag=tag)
        self._declare_tag(tag, t)
        return t

    # ------------------------------------------------------------------
    # Declarators
    # ------------------------------------------------------------------

    def _parse_declarator(
        self, base: CType, abstract: bool = False
    ) -> tuple[str | None, CType, list[A.Decl]]:
        """Parse a (possibly abstract) declarator against ``base``.

        Returns ``(name, full_type, param_decls)``; ``param_decls`` is only
        meaningful when the full type is a function type (it feeds function
        definitions).
        """
        # Build a list of type-wrapping steps; the declarator grammar is
        # inside-out so we apply pointers first, then suffixes in order.
        pointer_steps: list[frozenset[str]] = []
        while self._check_punct("*"):
            self._advance()
            quals: set[str] = set()
            while True:
                self._skip_gnu_noise()
                tok = self.tokens[self.pos]
                if tok.kind is TokenKind.IDENT and tok.value in _TYPE_QUALIFIERS:
                    quals.add(tok.value.strip("_"))
                    self.pos += 1
                else:
                    break
            pointer_steps.append(frozenset(quals))
        self._skip_gnu_noise()

        name: str | None = None
        inner: tuple[int, int] | None = None  # token span of parenthesised declarator
        tok = self.tokens[self.pos]
        if tok.kind is TokenKind.IDENT and tok.value not in KEYWORDS:
            name = tok.value
            self.pos += 1
        elif (tok.value == "(" and tok.kind is TokenKind.PUNCT
              and self._paren_is_declarator(abstract)):
            # Parenthesised declarator: remember the span and parse later,
            # once suffixes are known.
            self._advance()
            depth = 1
            start = self.pos
            while depth:
                t = self._advance()
                if t.kind is TokenKind.EOF:
                    raise ParseError("unbalanced '(' in declarator", tok.location)
                if t.kind is TokenKind.PUNCT:
                    if t.value == "(":
                        depth += 1
                    elif t.value == ")":
                        depth -= 1
            inner = (start, self.pos - 1)

        # Suffixes: arrays and function parameter lists.
        dtype = base
        for quals in reversed(pointer_steps):
            dtype = PointerType(dtype, quals)
        suffixes: list[tuple[str, object]] = []
        param_decls: list[A.Decl] = []
        while True:
            self._skip_gnu_noise()
            if self._accept_punct("["):
                length: int | None = None
                if not self._check_punct("]"):
                    # Skip 'static'/qualifiers in C99 array params.
                    while True:
                        t = self.tokens[self.pos]
                        if t.kind is TokenKind.IDENT and (
                            t.value in _TYPE_QUALIFIERS or t.value == "static"
                        ):
                            self.pos += 1
                        else:
                            break
                    if not self._check_punct("]"):
                        expr = self._parse_assignment_expr()
                        length = self._fold_constant(expr)
                self._expect_punct("]")
                suffixes.append(("array", length))
            elif self._check_punct("("):
                params, variadic, unspecified, decls = self._parse_parameter_list()
                suffixes.append(("function", (params, variadic, unspecified)))
                if not param_decls:
                    param_decls = decls
            else:
                break

        # Apply suffixes outside-in: the first suffix binds tightest.
        for kind, payload in reversed(suffixes):
            if kind == "array":
                dtype = ArrayType(dtype, payload)  # type: ignore[arg-type]
            else:
                params, variadic, unspecified = payload  # type: ignore[misc]
                dtype = FunctionType(dtype, tuple(params), variadic, unspecified)

        if inner is not None:
            saved = self.pos
            self.pos = inner[0]
            name, dtype, inner_params = self._parse_declarator(dtype, abstract)
            if inner_params:
                param_decls = inner_params
            self.pos = saved
        return name, dtype, param_decls

    def _paren_is_declarator(self, abstract: bool) -> bool:
        """Disambiguate ``(`` after a declarator position: grouping paren of
        a declarator vs start of a parameter list (for abstract declarators
        like ``int (int)``)."""
        nxt = self._peek(1)
        if nxt.kind is TokenKind.PUNCT:
            # "(*", "((" and "([" open a declarator; "()" is an empty
            # parameter list.
            return nxt.value in ("*", "(", "[")
        if nxt.kind is TokenKind.IDENT:
            if nxt.value in KEYWORDS or nxt.value in _GNU_NOISE:
                return nxt.value not in _DECL_START_WORDS
            if self._is_typedef_name(nxt):
                return False  # parameter list starting with a type name
            return True  # plain identifier: the declared name (or K&R param)
        return False

    def _parse_parameter_list(
        self,
    ) -> tuple[list[Param], bool, bool, list[A.Decl]]:
        open_tok = self._expect_punct("(")
        params: list[Param] = []
        decls: list[A.Decl] = []
        variadic = False
        unspecified = False
        if self._accept_punct(")"):
            return params, variadic, True, decls  # f() — unspecified
        # K&R identifier list: f(a, b, c)
        first = self.tokens[self.pos]
        if (
            first.kind is TokenKind.IDENT
            and first.value not in KEYWORDS
            and not self._is_typedef_name(first)
            and not self._starts_declaration(first)
        ):
            while True:
                name_tok = self._expect_ident()
                params.append(Param(name_tok.value, IntType()))
                if not self._accept_punct(","):
                    break
            self._expect_punct(")")
            decls = [
                A.Decl(p.name or "", p.type, location=open_tok.location)
                for p in params
            ]
            return params, False, True, decls

        while True:
            if self._accept_punct("..."):
                variadic = True
                break
            specs = self._parse_declaration_specifiers()
            if specs is None:
                raise ParseError(
                    f"expected parameter declaration, found "
                    f"{self.tokens[self.pos].value!r}",
                    self.tokens[self.pos].location,
                )
            base, _ = specs
            loc = self.tokens[self.pos].location
            name, ptype, _ = self._parse_declarator(base, abstract=True)
            # Parameter type adjustments (C11 6.7.6.3): arrays and functions
            # decay to pointers.
            if isinstance(ptype, ArrayType):
                ptype = PointerType(ptype.element)
            elif isinstance(ptype, FunctionType):
                ptype = PointerType(ptype)
            if isinstance(ptype, VoidType) and name is None and not params:
                if self._check_punct(")"):
                    break  # f(void)
            params.append(Param(name, ptype))
            decls.append(A.Decl(name or "", ptype, location=loc))
            if not self._accept_punct(","):
                break
        self._expect_punct(")")
        return params, variadic, unspecified, decls

    def _parse_type_name(self) -> CType:
        specs = self._parse_declaration_specifiers()
        if specs is None:
            raise ParseError(
                f"expected type name, found {self.tokens[self.pos].value!r}",
                self.tokens[self.pos].location,
            )
        base, _ = specs
        _, dtype, _ = self._parse_declarator(base, abstract=True)
        return dtype

    # ------------------------------------------------------------------
    # Initializers
    # ------------------------------------------------------------------

    def _parse_initializer(self) -> A.Expr:
        if self._check_punct("{"):
            return self._parse_braced_initializer()
        return self._parse_assignment_expr()

    def _parse_braced_initializer(self) -> A.InitList:
        open_tok = self._expect_punct("{")
        items: list[A.Expr] = []
        while not self._check_punct("}"):
            # Designators: .field = / [index] = — flattened, since the
            # value analysis does not track positions within aggregates at
            # initialisation granularity (it is field-based by *name*).
            while True:
                if self._accept_punct("."):
                    self._expect_ident()
                elif self._accept_punct("["):
                    self._parse_conditional()
                    while self._accept_punct("..."):
                        self._parse_conditional()
                    self._expect_punct("]")
                else:
                    break
            self._accept_punct("=")
            items.append(self._parse_initializer())
            if not self._accept_punct(","):
                break
        self._expect_punct("}")
        return A.InitList(items=items, location=open_tok.location)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _parse_compound_statement(self) -> A.Compound:
        open_tok = self._expect_punct("{")
        self._push_scope()
        block = A.Compound(location=open_tok.location)
        try:
            while not self._check_punct("}"):
                if self.tokens[self.pos].kind is TokenKind.EOF:
                    raise ParseError("unterminated block", open_tok.location)
                block.items.extend(self._parse_block_item())
        finally:
            self._pop_scope()
        self._expect_punct("}")
        return block

    def _parse_block_item(self) -> list[A.Stmt | A.Decl]:
        tok = self.tokens[self.pos]
        if self._starts_declaration(tok) and not self._is_label_ahead():
            return self._parse_local_declaration()
        return [self._parse_statement()]

    def _is_label_ahead(self) -> bool:
        tok, nxt = self.tokens[self.pos], self._peek(1)
        return (
            tok.kind is TokenKind.IDENT
            and tok.value not in KEYWORDS
            and nxt.value == ":" and nxt.kind is TokenKind.PUNCT
        )

    def _parse_local_declaration(self) -> list[A.Decl]:
        start = self.tokens[self.pos].location
        specs = self._parse_declaration_specifiers()
        assert specs is not None
        base, storage = specs
        decls: list[A.Decl] = []
        if self._accept_punct(";"):
            return decls
        while True:
            name, dtype, _ = self._parse_declarator(base)
            self._skip_gnu_noise()
            decls.append(self._finish_init_declarator(name, dtype, storage, start))
            if not self._accept_punct(","):
                break
        self._expect_punct(";")
        return decls

    def _parse_statement(self) -> A.Stmt:
        tok = self.tokens[self.pos]
        loc = tok.location
        if tok.kind is TokenKind.PUNCT:
            if tok.value == "{":
                return self._parse_compound_statement()
            if tok.value == ";":
                self._advance()
                return A.ExprStmt(expr=None, location=loc)
        if tok.kind is TokenKind.IDENT:
            word = tok.value
            if word == "if":
                return self._parse_if()
            if word == "while":
                return self._parse_while()
            if word == "do":
                return self._parse_do_while()
            if word == "for":
                return self._parse_for()
            if word == "return":
                self._advance()
                value = None if self._check_punct(";") else self._parse_expression()
                self._expect_punct(";")
                return A.Return(value=value, location=loc)
            if word == "break":
                self._advance()
                self._expect_punct(";")
                return A.Break(location=loc)
            if word == "continue":
                self._advance()
                self._expect_punct(";")
                return A.Continue(location=loc)
            if word == "goto":
                self._advance()
                label = self._expect_ident().value
                self._expect_punct(";")
                return A.Goto(label=label, location=loc)
            if word == "switch":
                self._advance()
                self._expect_punct("(")
                cond = self._parse_expression()
                self._expect_punct(")")
                body = self._parse_statement()
                return A.Switch(cond=cond, body=body, location=loc)
            if word == "case":
                self._advance()
                value = self._parse_conditional()
                while self._accept_punct("..."):  # GNU case ranges
                    self._parse_conditional()
                self._expect_punct(":")
                return A.Case(value=value, stmt=self._parse_statement(),
                              location=loc)
            if word == "default":
                self._advance()
                self._expect_punct(":")
                return A.Default(stmt=self._parse_statement(), location=loc)
            if self._is_label_ahead():
                self._advance()
                self._advance()
                if self._check_punct("}"):
                    # Label at end of block: attach an empty statement.
                    return A.Label(name=word, stmt=A.ExprStmt(expr=None,
                                                              location=loc),
                                   location=loc)
                return A.Label(name=word, stmt=self._parse_statement(),
                               location=loc)
        expr = self._parse_expression()
        self._expect_punct(";")
        return A.ExprStmt(expr=expr, location=loc)

    def _parse_if(self) -> A.If:
        loc = self._expect_kw("if").location
        self._expect_punct("(")
        cond = self._parse_expression()
        self._expect_punct(")")
        then = self._parse_statement()
        otherwise = self._parse_statement() if self._accept_kw("else") else None
        return A.If(cond=cond, then=then, otherwise=otherwise, location=loc)

    def _parse_while(self) -> A.While:
        loc = self._expect_kw("while").location
        self._expect_punct("(")
        cond = self._parse_expression()
        self._expect_punct(")")
        return A.While(cond=cond, body=self._parse_statement(), location=loc)

    def _parse_do_while(self) -> A.DoWhile:
        loc = self._expect_kw("do").location
        body = self._parse_statement()
        self._expect_kw("while")
        self._expect_punct("(")
        cond = self._parse_expression()
        self._expect_punct(")")
        self._expect_punct(";")
        return A.DoWhile(body=body, cond=cond, location=loc)

    def _parse_for(self) -> A.For:
        loc = self._expect_kw("for").location
        self._expect_punct("(")
        self._push_scope()
        try:
            init: A.Expr | list[A.Decl] | None
            if self._accept_punct(";"):
                init = None
            elif self._starts_declaration(self.tokens[self.pos]):
                init = self._parse_local_declaration()  # consumes ';'
            else:
                init = self._parse_expression()
                self._expect_punct(";")
            cond = None if self._check_punct(";") else self._parse_expression()
            self._expect_punct(";")
            step = None if self._check_punct(")") else self._parse_expression()
            self._expect_punct(")")
            body = self._parse_statement()
        finally:
            self._pop_scope()
        return A.For(init=init, cond=cond, step=step, body=body, location=loc)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def _parse_expression(self) -> A.Expr:
        first = self._parse_assignment_expr()
        if not self._check_punct(","):
            return first
        parts = [first]
        while self._accept_punct(","):
            parts.append(self._parse_assignment_expr())
        return A.Comma(parts=parts, location=first.location)

    def _parse_assignment_expr(self) -> A.Expr:
        lhs = self._parse_conditional()
        tok = self.tokens[self.pos]
        if tok.kind is TokenKind.PUNCT and tok.value in _ASSIGN_OPS:
            self._advance()
            rhs = self._parse_assignment_expr()
            return A.Assignment(op=tok.value, lhs=lhs, rhs=rhs,
                                location=tok.location)
        return lhs

    def _parse_conditional(self) -> A.Expr:
        cond = self._parse_binary(1)
        if self._check_punct("?"):
            qtok = self._advance()
            # GNU a ?: b
            if self._check_punct(":"):
                self._advance()
                otherwise = self._parse_conditional()
                return A.Conditional(cond=cond, then=cond, otherwise=otherwise,
                                     location=qtok.location)
            then = self._parse_expression()
            self._expect_punct(":")
            otherwise = self._parse_conditional()
            return A.Conditional(cond=cond, then=then, otherwise=otherwise,
                                 location=qtok.location)
        return cond

    def _parse_binary(self, min_precedence: int) -> A.Expr:
        left = self._parse_cast_expr()
        while True:
            tok = self.tokens[self.pos]
            if tok.kind is not TokenKind.PUNCT:
                return left
            precedence = _BINOP_PRECEDENCE.get(tok.value)
            if precedence is None or precedence < min_precedence:
                return left
            self._advance()
            right = self._parse_binary(precedence + 1)
            left = A.Binary(op=tok.value, left=left, right=right,
                            location=tok.location)

    def _parse_cast_expr(self) -> A.Expr:
        tok = self.tokens[self.pos]
        if (tok.value == "(" and tok.kind is TokenKind.PUNCT
                and self._paren_starts_type(1)):
            loc = tok.location
            self._advance()
            to_type = self._parse_type_name()
            self._expect_punct(")")
            if self._check_punct("{"):
                init = self._parse_braced_initializer()
                return self._parse_postfix_suffixes(
                    A.CompoundLiteral(of_type=to_type, init=init, location=loc)
                )
            operand = self._parse_cast_expr()
            return A.Cast(to_type=to_type, operand=operand, location=loc)
        return self._parse_unary()

    def _paren_starts_type(self, ahead: int) -> bool:
        tok = self._peek(ahead)
        if tok.kind is not TokenKind.IDENT:
            return False
        word = tok.value
        if (
            word in _BASE_TYPE_WORDS
            or word in _TYPE_QUALIFIERS
            or word in ("struct", "union", "enum")
            or word in _GNU_NOISE
        ):
            return True
        return self._is_typedef_name(tok)

    def _parse_unary(self) -> A.Expr:
        tok = self.tokens[self.pos]
        loc = tok.location
        if tok.kind is TokenKind.PUNCT:
            if tok.value in ("++", "--"):
                self._advance()
                operand = self._parse_unary()
                return A.Unary(op=tok.value, operand=operand, location=loc)
            if tok.value in ("*", "&", "+", "-", "!", "~"):
                self._advance()
                operand = self._parse_cast_expr()
                return A.Unary(op=tok.value, operand=operand, location=loc)
        elif tok.value == "sizeof" and tok.kind is TokenKind.IDENT:
            self._advance()
            if self._check_punct("(") and self._paren_starts_type(1):
                self._advance()
                of_type = self._parse_type_name()
                self._expect_punct(")")
                return A.SizeofType(of_type=of_type, location=loc)
            operand = self._parse_unary()
            return A.Unary(op="sizeof", operand=operand, location=loc)
        elif tok.value in ("__alignof__", "_Alignof") \
                and tok.kind is TokenKind.IDENT:
            self._advance()
            self._expect_punct("(")
            of_type = self._parse_type_name()
            self._expect_punct(")")
            return A.SizeofType(of_type=of_type, location=loc)
        return self._parse_postfix()

    def _parse_postfix(self) -> A.Expr:
        expr = self._parse_primary()
        return self._parse_postfix_suffixes(expr)

    def _parse_postfix_suffixes(self, expr: A.Expr) -> A.Expr:
        while True:
            tok = self.tokens[self.pos]
            if tok.kind is not TokenKind.PUNCT:
                return expr
            value = tok.value
            if value == "[":
                self._advance()
                index = self._parse_expression()
                self._expect_punct("]")
                expr = A.Index(base=expr, index=index, location=tok.location)
            elif value == "(":
                self._advance()
                args: list[A.Expr] = []
                if not self._check_punct(")"):
                    args.append(self._parse_assignment_expr())
                    while self._accept_punct(","):
                        args.append(self._parse_assignment_expr())
                self._expect_punct(")")
                expr = A.Call(func=expr, args=args, location=tok.location)
            elif value == "." or value == "->":
                self._advance()
                name = self._expect_ident().value
                expr = A.Member(base=expr, field_name=name,
                                arrow=value == "->", location=tok.location)
            elif value == "++" or value == "--":
                self._advance()
                expr = A.Postfix(op=value, operand=expr,
                                 location=tok.location)
            else:
                return expr

    def _parse_primary(self) -> A.Expr:
        tok = self.tokens[self.pos]
        loc = tok.location
        if tok.value == "(" and tok.kind is TokenKind.PUNCT:
            self._advance()
            expr = self._parse_expression()
            self._expect_punct(")")
            return expr
        if tok.kind is TokenKind.NUMBER:
            self._advance()
            text = tok.value
            if any(c in text for c in ".eEpP") and not text.lower().startswith("0x"):
                try:
                    return A.FloatLiteral(value=float(text.rstrip("fFlL")),
                                          text=text, location=loc)
                except ValueError:
                    pass
            if text.lower().startswith("0x") and any(c in text for c in ".pP"):
                return A.FloatLiteral(value=0.0, text=text, location=loc)
            return A.IntLiteral(value=parse_int_constant(text, loc),
                                text=text, location=loc)
        if tok.kind is TokenKind.CHAR:
            self._advance()
            return A.CharLiteral(value=char_constant_value(tok.value),
                                 text=tok.value, location=loc)
        if tok.kind is TokenKind.STRING:
            # Adjacent string literals concatenate.
            parts: list[str] = []
            while self.tokens[self.pos].kind is TokenKind.STRING:
                t = self._advance()
                body = t.value
                if body.startswith("L"):
                    body = body[1:]
                parts.append(body[1:-1])
            return A.StringLiteral(value="".join(parts), location=loc)
        if tok.kind is TokenKind.IDENT and tok.value not in KEYWORDS:
            self._advance()
            return A.Identifier(name=tok.value, location=loc)
        raise ParseError(
            f"expected expression, found {tok.value!r}", loc
        )

    # ------------------------------------------------------------------
    # Constant folding (array sizes, enum values, bit-field widths)
    # ------------------------------------------------------------------

    def _fold_constant(self, expr: A.Expr) -> int | None:
        match expr:
            case A.IntLiteral(value=v) | A.CharLiteral(value=v):
                return v
            case A.Identifier(name=name):
                return self._lookup_enum_constant(name)
            case A.Unary(op=op, operand=inner):
                v = self._fold_constant(inner)
                if v is None:
                    return None
                return {
                    "-": -v, "+": v, "!": int(not v), "~": ~v,
                }.get(op)
            case A.Binary(op=op, left=lhs, right=rhs):
                a, b = self._fold_constant(lhs), self._fold_constant(rhs)
                if a is None or b is None:
                    return None
                try:
                    return {
                        "+": a + b, "-": a - b, "*": a * b,
                        "/": int(a / b) if b else None,
                        "%": (a - int(a / b) * b) if b else None,
                        "<<": a << (b & 63), ">>": a >> (b & 63),
                        "&": a & b, "|": a | b, "^": a ^ b,
                        "==": int(a == b), "!=": int(a != b),
                        "<": int(a < b), ">": int(a > b),
                        "<=": int(a <= b), ">=": int(a >= b),
                        "&&": int(bool(a and b)), "||": int(bool(a or b)),
                    }.get(op)
                except (ZeroDivisionError, ValueError):
                    return None
            case A.Conditional(cond=c, then=t, otherwise=o):
                cv = self._fold_constant(c)
                if cv is None:
                    return None
                return self._fold_constant(t if cv else o)
            case A.Cast(operand=inner):
                return self._fold_constant(inner)
            case A.SizeofType(of_type=t):
                return _approx_sizeof(t)
            case A.Unary(op="sizeof"):
                return None
            case _:
                return None


@functools.cache
def _base_type(words: frozenset[str], long_long: bool,
               quals: frozenset[str]) -> CType:
    """The type a declaration's base words name, given which words occur,
    whether ``long`` occurs twice, and the qualifiers.

    Cached: the arguments range over a finite set (11 base words, 4
    qualifiers once stripped), and the types are frozen, so every
    declaration with the same words shares one.
    """
    if not words:
        return IntType("int", True, quals)  # implicit int
    if "void" in words:
        return VoidType(quals)
    if "__builtin_va_list" in words:
        return PointerType(VoidType(), quals)
    if "double" in words:
        kind = "long double" if "long" in words else "double"
        return FloatType(kind, quals)
    if "float" in words:
        return FloatType("float", quals)
    signed = "unsigned" not in words
    if "_Bool" in words:
        return IntType("_Bool", False, quals)
    if "char" in words:
        return IntType("char", signed, quals)
    if "short" in words:
        return IntType("short", signed, quals)
    if long_long:
        return IntType("long long", signed, quals)
    if "long" in words:
        return IntType("long", signed, quals)
    return IntType("int", signed, quals)


def _approx_sizeof(t: CType) -> int:
    """Approximate sizeof for constant folding (ILP32 model)."""
    if isinstance(t, IntType):
        return t.size
    if isinstance(t, FloatType):
        return t.size
    if isinstance(t, PointerType):
        return 4
    if isinstance(t, ArrayType):
        return (t.length or 1) * _approx_sizeof(t.element)
    if isinstance(t, StructType):
        return sum(_approx_sizeof(f.type) for f in t.fields or ()) or 1
    if isinstance(t, EnumType):
        return 4
    return 4


def parse_tokens(tokens: list[Token], filename: str = "<unit>",
                 tolerant: bool = False) -> A.TranslationUnit:
    """Parse a preprocessed token stream into a translation unit."""
    return Parser(tokens, filename, tolerant=tolerant).parse_translation_unit()
