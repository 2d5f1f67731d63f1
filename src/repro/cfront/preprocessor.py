"""A token-based C preprocessor.

Implements the directive set needed to compile real-world C translation
units: object- and function-like macros (with ``#`` stringization, ``##``
pasting and ``__VA_ARGS__``), ``#include`` with search paths and a virtual
filesystem, the full conditional family with a constant-expression
evaluator, ``#undef``, ``#error``, and ``#pragma``/``#line`` passthrough.

The design follows the classic rescan model: expanding a macro produces a
token list whose identifiers carry a ``no_expand`` set naming the macros
already expanded on that path, which prevents infinite recursion exactly as
C99 6.10.3.4 requires.

The preprocessor is the first half of the paper's *compile* phase: CLA parses
unpreprocessed source files, so macro handling must live in-process rather
than shelling out to ``cpp``.
"""

from __future__ import annotations

import functools
import hashlib
import os
from dataclasses import dataclass

from .errors import PreprocessorError
from .lexer import Lexer, Token, TokenKind, tokenize, tokenize_text
from .source import Location, SourceFile

#: Headers provided by the preprocessor itself so that code bases using the
#: standard library can be compiled without a host C installation.  They only
#: declare what a flow-insensitive value analysis needs: allocation
#: primitives, the common string/IO functions, and a few types.
BUILTIN_HEADERS: dict[str, str] = {
    "stddef.h": """
typedef unsigned long size_t;
typedef long ptrdiff_t;
typedef int wchar_t;
#define NULL ((void *)0)
#define offsetof(type, member) ((size_t)0)
""",
    "stdlib.h": """
#include <stddef.h>
void *malloc(size_t size);
void *calloc(size_t nmemb, size_t size);
void *realloc(void *ptr, size_t size);
void free(void *ptr);
void exit(int status);
void abort(void);
int atoi(const char *nptr);
long atol(const char *nptr);
int rand(void);
void srand(unsigned int seed);
void qsort(void *base, size_t nmemb, size_t size,
           int (*compar)(const void *, const void *));
char *getenv(const char *name);
""",
    "stdio.h": """
#include <stddef.h>
typedef struct _IO_FILE { int _fileno; } FILE;
extern FILE *stdin;
extern FILE *stdout;
extern FILE *stderr;
#define EOF (-1)
int printf(const char *format, ...);
int fprintf(FILE *stream, const char *format, ...);
int sprintf(char *str, const char *format, ...);
int scanf(const char *format, ...);
int fscanf(FILE *stream, const char *format, ...);
int sscanf(const char *str, const char *format, ...);
FILE *fopen(const char *path, const char *mode);
int fclose(FILE *fp);
int fgetc(FILE *stream);
char *fgets(char *s, int size, FILE *stream);
int fputc(int c, FILE *stream);
int fputs(const char *s, FILE *stream);
int puts(const char *s);
int getchar(void);
int putchar(int c);
size_t fread(void *ptr, size_t size, size_t nmemb, FILE *stream);
size_t fwrite(const void *ptr, size_t size, size_t nmemb, FILE *stream);
""",
    "string.h": """
#include <stddef.h>
void *memcpy(void *dest, const void *src, size_t n);
void *memmove(void *dest, const void *src, size_t n);
void *memset(void *s, int c, size_t n);
int memcmp(const void *s1, const void *s2, size_t n);
char *strcpy(char *dest, const char *src);
char *strncpy(char *dest, const char *src, size_t n);
char *strcat(char *dest, const char *src);
char *strncat(char *dest, const char *src, size_t n);
int strcmp(const char *s1, const char *s2);
int strncmp(const char *s1, const char *s2, size_t n);
char *strchr(const char *s, int c);
char *strrchr(const char *s, int c);
char *strstr(const char *haystack, const char *needle);
size_t strlen(const char *s);
char *strdup(const char *s);
""",
    "assert.h": """
#define assert(expr) ((void)0)
""",
    "limits.h": """
#define CHAR_BIT 8
#define SCHAR_MIN (-128)
#define SCHAR_MAX 127
#define CHAR_MIN SCHAR_MIN
#define CHAR_MAX SCHAR_MAX
#define UCHAR_MAX 255
#define SHRT_MIN (-32768)
#define SHRT_MAX 32767
#define USHRT_MAX 65535
#define INT_MIN (-2147483647 - 1)
#define INT_MAX 2147483647
#define UINT_MAX 4294967295U
#define LONG_MIN (-2147483647L - 1L)
#define LONG_MAX 2147483647L
#define ULONG_MAX 4294967295UL
""",
    "stdarg.h": """
typedef char *va_list;
#define va_start(ap, last) ((ap) = (char *)0)
#define va_arg(ap, type) (*(type *)0)
#define va_end(ap) ((void)0)
#define va_copy(dest, src) ((dest) = (src))
""",
    "ctype.h": """
int isalpha(int c);
int isdigit(int c);
int isalnum(int c);
int isspace(int c);
int isupper(int c);
int islower(int c);
int toupper(int c);
int tolower(int c);
""",
    "stdbool.h": """
#define bool _Bool
#define true 1
#define false 0
#define __bool_true_false_are_defined 1
""",
    "stdint.h": """
typedef signed char int8_t;
typedef unsigned char uint8_t;
typedef short int16_t;
typedef unsigned short uint16_t;
typedef int int32_t;
typedef unsigned int uint32_t;
typedef long long int64_t;
typedef unsigned long long uint64_t;
typedef long intptr_t;
typedef unsigned long uintptr_t;
typedef unsigned long size_t;
#define INT8_MAX 127
#define INT16_MAX 32767
#define INT32_MAX 2147483647
#define UINT32_MAX 4294967295U
""",
    "errno.h": """
extern int errno;
#define EINVAL 22
#define ENOMEM 12
#define EIO 5
""",
    "time.h": """
typedef long time_t;
typedef long clock_t;
struct tm {
    int tm_sec; int tm_min; int tm_hour;
    int tm_mday; int tm_mon; int tm_year;
    int tm_wday; int tm_yday; int tm_isdst;
};
time_t time(time_t *tloc);
clock_t clock(void);
struct tm *localtime(const time_t *timep);
struct tm *gmtime(const time_t *timep);
""",
    "setjmp.h": """
typedef int jmp_buf[16];
int setjmp(jmp_buf env);
void longjmp(jmp_buf env, int val);
""",
    "signal.h": """
typedef void (*sighandler_t)(int);
sighandler_t signal(int signum, sighandler_t handler);
int raise(int sig);
#define SIGINT 2
#define SIGSEGV 11
#define SIG_DFL ((sighandler_t)0)
#define SIG_IGN ((sighandler_t)1)
""",
    "math.h": """
double sqrt(double x);
double pow(double x, double y);
double fabs(double x);
double floor(double x);
double ceil(double x);
double sin(double x);
double cos(double x);
double log(double x);
double exp(double x);
""",
}


@dataclass(slots=True)
class Macro:
    """A ``#define`` definition."""

    name: str
    body: list[Token]
    params: list[str] | None = None  # None => object-like
    variadic: bool = False
    location: Location = Location.unknown()

    @property
    def is_function_like(self) -> bool:
        return self.params is not None


#: The macros every preprocessor starts with, before its ``predefined``.
_DEFAULT_MACROS = {"__STDC__": "1", "__STDC_VERSION__": "199901L",
                   "__repro_cla__": "1"}


def _lex_body(replacement: str) -> list[Token]:
    """The tokens of a command-line style macro definition's body."""
    return [
        t
        for t in tokenize(SourceFile("<predefined>", replacement))
        if t.kind is not TokenKind.EOF
    ]


@functools.cache
def _default_bodies() -> dict[str, list[Token]]:
    """`_DEFAULT_MACROS`' bodies, lexed once per process and shared by every
    preprocessor: an expansion builds new tokens and never mutates a body."""
    return {name: _lex_body(replacement)
            for name, replacement in _DEFAULT_MACROS.items()}


class IncludeResolver:
    """Locates ``#include`` targets.

    Resolution order: for ``"file"`` includes, the including file's directory,
    then the user search path, then virtual files, then builtin headers; for
    ``<file>`` includes, the user search path, then virtual files, then
    builtin headers.  Virtual files let tests and the synthetic benchmark
    generator supply multi-file code bases without touching disk.
    """

    def __init__(
        self,
        include_dirs: list[str] | None = None,
        virtual_files: dict[str, str] | None = None,
        use_builtin_headers: bool = True,
    ):
        self.include_dirs = list(include_dirs or [])
        self.virtual_files = dict(virtual_files or {})
        self.use_builtin_headers = use_builtin_headers
        #: Raw token streams of included files, one entry per file name
        #: as ``(text, tolerant, tokens)``, replaced when the text
        #: changes: headers are tokenized once per project instead of once
        #: per including unit.  Safe because tokens are never mutated
        #: downstream — the preprocessor builds *new* tokens for macro
        #: expansions.
        self.token_cache: dict[str, tuple[str, bool, list]] = {}
        #: sha256 of included texts, one entry per file name as
        #: ``(text, digest)``, replaced when the text changes.
        self.digests: dict[str, tuple[str, str]] = {}

    def resolve(
        self, name: str, angled: bool, including_file: str
    ) -> SourceFile | None:
        candidates: list[str] = []
        if not angled:
            base = os.path.dirname(including_file)
            candidates.append(os.path.join(base, name) if base else name)
        candidates.extend(os.path.join(d, name) for d in self.include_dirs)
        for path in candidates:
            normalized = os.path.normpath(path)
            if normalized in self.virtual_files:
                return SourceFile(normalized, self.virtual_files[normalized])
            if os.path.isfile(normalized):
                with open(normalized, "r", errors="replace") as f:
                    return SourceFile(normalized, f.read())
        if name in self.virtual_files:
            return SourceFile(name, self.virtual_files[name])
        if self.use_builtin_headers and name in BUILTIN_HEADERS:
            return SourceFile(f"<builtin>/{name}", BUILTIN_HEADERS[name])
        return None

    def digest(self, source: SourceFile) -> str:
        """The sha256 of a resolved file's text, hashed once per text."""
        entry = self.digests.get(source.filename)
        if entry is None or entry[0] != source.text:
            entry = (source.text,
                     hashlib.sha256(source.text.encode()).hexdigest())
            self.digests[source.filename] = entry
        return entry[1]


#: Names `_maybe_expand` answers itself, whatever the macro table holds.
_BUILTIN_MACROS = frozenset({"__FILE__", "__LINE__"})


class _ConditionalState:
    """Tracks one #if/#elif/#else/#endif nesting level."""

    __slots__ = ("was_active", "taken", "seen_else")

    def __init__(self, was_active: bool, taken: bool):
        self.was_active = was_active  # were we emitting before this #if?
        self.taken = taken  # has any branch of this group been taken?
        self.seen_else = False


class Preprocessor:
    """Preprocesses a translation unit into a flat token list."""

    MAX_INCLUDE_DEPTH = 64

    def __init__(
        self,
        resolver: IncludeResolver | None = None,
        predefined: dict[str, str] | None = None,
        tolerant: bool = False,
    ):
        self.resolver = resolver or IncludeResolver()
        #: Passed to the lexer: stray characters become punctuation tokens
        #: for the parser's recovery to step over.
        self.tolerant = tolerant
        self.macros: dict[str, Macro] = {}
        self._include_depth = 0
        self._pragma_once: set[str] = set()
        #: every ``#include`` resolved so far: (name, angled, including
        #: file) -> the file read
        self.includes: dict[tuple[str, bool, str], SourceFile] = {}
        for name, body in _default_bodies().items():
            self.macros[name] = Macro(name=name, body=body)
        for name, value in (predefined or {}).items():
            self.define_object_macro(name, value)

    # -- public API ----------------------------------------------------------

    def define_object_macro(self, name: str, replacement: str = "") -> None:
        self.macros[name] = Macro(name=name, body=_lex_body(replacement))

    def preprocess(self, source: SourceFile) -> list[Token]:
        """Fully preprocess ``source``; result ends with one EOF token."""
        out = self._process_file(source)
        out.append(Token(TokenKind.EOF, "", Location(source.filename, 0)))
        return out

    def preprocess_text(self, text: str, filename: str = "<string>") -> list[Token]:
        return self.preprocess(SourceFile(filename, text))

    # -- file / line scanning --------------------------------------------------

    def _process_file(self, source: SourceFile) -> list[Token]:
        if self._include_depth > self.MAX_INCLUDE_DEPTH:
            raise PreprocessorError(
                f"#include nested too deeply (> {self.MAX_INCLUDE_DEPTH})",
                Location(source.filename, 1),
            )
        # Only included files are cached.  A top-level unit is compiled
        # once per text and its caller keeps the result, so an entry for
        # it would only pin a copy of every version ever compiled.
        cache = (getattr(self.resolver, "token_cache", None)
                 if self._include_depth else None)
        entry = cache.get(source.filename) if cache is not None else None
        if (entry is not None and entry[1] == self.tolerant
                and entry[0] == source.text):
            tokens = entry[2]
        else:
            tokens = Lexer(source, tolerant=self.tolerant).tokens()
            if cache is not None:
                cache[source.filename] = (source.text, self.tolerant, tokens)
        out: list[Token] = []
        append = out.append
        macros = self.macros
        conditionals: list[_ConditionalState] = []
        # Only a directive changes which region is active.
        active = True
        i = 0
        n = len(tokens)
        while i < n:
            tok = tokens[i]
            kind = tok.kind
            if kind is TokenKind.HASH:
                line, i = self._collect_directive_line(tokens, i + 1)
                self._handle_directive(line, tok.location, out, conditionals)
                active = all(c.taken and c.was_active for c in conditionals)
                continue
            if kind is TokenKind.EOF:
                break
            if not active:
                i += 1
                continue
            if kind is TokenKind.IDENT and (
                    tok.value in macros or tok.value in _BUILTIN_MACROS):
                # Macro-expand it, pulling more tokens if a function-like
                # macro call spans lines.
                expanded, i = self._maybe_expand(tokens, i)
                out.extend(expanded)
                continue
            # A token no macro names passes straight through.
            append(tok)
            i += 1
        if conditionals:
            raise PreprocessorError(
                "unterminated #if", Location(source.filename, 0)
            )
        return out

    @staticmethod
    def _collect_directive_line(
        tokens: list[Token], start: int
    ) -> tuple[list[Token], int]:
        """Collect tokens until the next line break (post-splice)."""
        line: list[Token] = []
        i = start
        while i < len(tokens):
            tok = tokens[i]
            if tok.kind is TokenKind.EOF or tok.at_line_start:
                break
            line.append(tok)
            i += 1
        return line, i

    # -- directives ------------------------------------------------------------

    def _handle_directive(
        self,
        line: list[Token],
        hash_location: Location,
        out: list[Token],
        conditionals: list[_ConditionalState],
    ) -> None:
        active = all(c.taken and c.was_active for c in conditionals) \
            if conditionals else True
        if not line:
            return  # null directive '#'
        name = line[0].value if line[0].kind is TokenKind.IDENT else ""
        rest = line[1:]

        if name == "if":
            parent_active = active
            value = self._eval_condition(rest, hash_location) if parent_active else False
            conditionals.append(_ConditionalState(parent_active, bool(value)))
        elif name == "ifdef":
            self._require_one_ident(rest, hash_location, "#ifdef")
            taken = active and rest[0].value in self.macros
            conditionals.append(_ConditionalState(active, taken))
        elif name == "ifndef":
            self._require_one_ident(rest, hash_location, "#ifndef")
            taken = active and rest[0].value not in self.macros
            conditionals.append(_ConditionalState(active, taken))
        elif name == "elif":
            if not conditionals:
                raise PreprocessorError("#elif without #if", hash_location)
            state = conditionals[-1]
            if state.seen_else:
                raise PreprocessorError("#elif after #else", hash_location)
            if state.taken:
                state.taken = False
                state.was_active = False  # a branch was taken; suppress rest
            elif state.was_active and self._eval_condition(rest, hash_location):
                state.taken = True
        elif name == "else":
            if not conditionals:
                raise PreprocessorError("#else without #if", hash_location)
            state = conditionals[-1]
            if state.seen_else:
                raise PreprocessorError("duplicate #else", hash_location)
            state.seen_else = True
            if state.taken:
                state.taken = False
                state.was_active = False
            elif state.was_active:
                state.taken = True
        elif name == "endif":
            if not conditionals:
                raise PreprocessorError("#endif without #if", hash_location)
            conditionals.pop()
        elif not active:
            return  # all other directives are skipped in inactive regions
        elif name == "define":
            self._handle_define(rest, hash_location)
        elif name == "undef":
            self._require_one_ident(rest, hash_location, "#undef")
            self.macros.pop(rest[0].value, None)
        elif name == "include":
            self._handle_include(rest, hash_location, out)
        elif name == "error":
            message = " ".join(t.value for t in rest)
            raise PreprocessorError(f"#error {message}", hash_location)
        elif name == "warning":
            pass  # warnings are silently dropped
        elif name in ("pragma", "line", "ident"):
            if name == "pragma" and rest and rest[0].is_ident("once"):
                self._pragma_once.add(hash_location.filename)
        elif name == "":
            raise PreprocessorError("malformed directive", hash_location)
        else:
            raise PreprocessorError(f"unknown directive #{name}", hash_location)

    @staticmethod
    def _require_one_ident(rest: list[Token], loc: Location, what: str) -> None:
        if not rest or rest[0].kind is not TokenKind.IDENT:
            raise PreprocessorError(f"{what} expects a macro name", loc)

    def _handle_define(self, rest: list[Token], loc: Location) -> None:
        if not rest or rest[0].kind is not TokenKind.IDENT:
            raise PreprocessorError("#define expects a macro name", loc)
        name_tok = rest[0]
        params: list[str] | None = None
        variadic = False
        body_start = 1
        # Function-like iff '(' immediately follows the name with no space.
        if (
            len(rest) > 1
            and rest[1].is_punct("(")
            and not rest[1].spaced
        ):
            params = []
            i = 2
            expecting_param = True
            while i < len(rest):
                tok = rest[i]
                if tok.is_punct(")"):
                    i += 1
                    break
                if tok.is_punct(","):
                    expecting_param = True
                    i += 1
                    continue
                if not expecting_param:
                    raise PreprocessorError("malformed macro parameter list", loc)
                if tok.kind is TokenKind.IDENT:
                    params.append(tok.value)
                elif tok.is_punct("..."):
                    variadic = True
                else:
                    raise PreprocessorError("malformed macro parameter list", loc)
                expecting_param = False
                i += 1
            else:
                raise PreprocessorError("unterminated macro parameter list", loc)
            body_start = i
        body = rest[body_start:]
        macro = Macro(
            name=name_tok.value,
            body=body,
            params=params,
            variadic=variadic,
            location=name_tok.location,
        )
        # A redefinition replaces the earlier one, as most compilers
        # warn and continue.
        self.macros[macro.name] = macro

    def _handle_include(
        self, rest: list[Token], loc: Location, out: list[Token]
    ) -> None:
        # The header name may itself come from a macro, so expand first
        # unless the line already starts with a string or '<'.
        if rest and rest[0].kind is TokenKind.IDENT:
            rest = self._expand_token_list(rest)
        if not rest:
            raise PreprocessorError("#include expects a file name", loc)
        if rest[0].kind is TokenKind.STRING:
            name = rest[0].value[1:-1]
            angled = False
        elif rest[0].is_punct("<"):
            parts = []
            for tok in rest[1:]:
                if tok.is_punct(">"):
                    break
                parts.append(tok.value)
            else:
                raise PreprocessorError("unterminated <...> include", loc)
            name = "".join(parts)
            angled = True
        else:
            raise PreprocessorError("malformed #include", loc)
        source = self.resolver.resolve(name, angled, loc.filename)
        if source is None:
            raise PreprocessorError(f"include file not found: {name}", loc)
        self.includes[(name, angled, loc.filename)] = source
        if source.filename in self._pragma_once:
            return
        self._include_depth += 1
        try:
            out.extend(self._process_file(source))
        finally:
            self._include_depth -= 1

    # -- #if expression evaluation ----------------------------------------------

    def _eval_condition(self, tokens: list[Token], loc: Location) -> int:
        # Handle defined(X) / defined X before macro expansion.
        replaced: list[Token] = []
        i = 0
        while i < len(tokens):
            tok = tokens[i]
            if tok.is_ident("defined"):
                j = i + 1
                if j < len(tokens) and tokens[j].is_punct("("):
                    if j + 2 >= len(tokens) or not tokens[j + 2].is_punct(")"):
                        raise PreprocessorError("malformed defined()", loc)
                    name = tokens[j + 1].value
                    i = j + 3
                elif j < len(tokens) and tokens[j].kind is TokenKind.IDENT:
                    name = tokens[j].value
                    i = j + 1
                else:
                    raise PreprocessorError("malformed defined operator", loc)
                value = "1" if name in self.macros else "0"
                replaced.append(Token(TokenKind.NUMBER, value, tok.location))
            else:
                replaced.append(tok)
                i += 1
        expanded = self._expand_token_list(replaced)
        # Remaining identifiers evaluate to 0 (C semantics).
        return _CondEvaluator(expanded, loc).parse()

    # -- macro expansion ----------------------------------------------------------

    def _maybe_expand(
        self, tokens: list[Token], i: int
    ) -> tuple[list[Token], int]:
        """Expand the token at ``tokens[i]`` against the macro table.

        Returns the replacement tokens and the index of the first unconsumed
        input token.  Function-like macro invocations may consume argument
        tokens across several lines.
        """
        tok = tokens[i]
        if tok.kind is not TokenKind.IDENT:
            return [tok], i + 1
        if tok.value == "__FILE__":
            return [Token(TokenKind.STRING,
                          '"' + tok.location.filename.replace("\\", "/")
                          + '"',
                          tok.location)], i + 1
        if tok.value == "__LINE__":
            return [Token(TokenKind.NUMBER, str(tok.location.line),
                          tok.location)], i + 1
        macro = self.macros.get(tok.value)
        if macro is None or tok.value in tok.no_expand:
            return [tok], i + 1
        if macro.is_function_like:
            j = i + 1
            if j >= len(tokens) or not tokens[j].is_punct("("):
                return [tok], i + 1  # name without call: not an invocation
            args, j = self._collect_arguments(tokens, j, macro, tok.location)
            body = self._substitute(macro, args, tok)
            rescanned = self._expand_token_list(body)
            return rescanned, j
        body = self._clone_body(macro, tok)
        rescanned = self._expand_token_list(body)
        return rescanned, i + 1

    def _expand_token_list(self, tokens: list[Token]) -> list[Token]:
        out: list[Token] = []
        i = 0
        while i < len(tokens):
            expanded, i = self._maybe_expand(tokens, i)
            out.extend(expanded)
        return out

    @staticmethod
    def _clone_body(macro: Macro, invocation: Token) -> list[Token]:
        blocked = invocation.no_expand | {macro.name}
        return [
            Token(
                t.kind,
                t.value,
                invocation.location,
                spaced=t.spaced,
                no_expand=t.no_expand | blocked,
            )
            for t in macro.body
        ]

    def _collect_arguments(
        self,
        tokens: list[Token],
        open_paren: int,
        macro: Macro,
        loc: Location,
    ) -> tuple[list[list[Token]], int]:
        args: list[list[Token]] = [[]]
        depth = 0
        i = open_paren
        n = len(tokens)
        while i < n:
            tok = tokens[i]
            if tok.kind is TokenKind.EOF:
                break
            if tok.is_punct("("):
                depth += 1
                if depth > 1:
                    args[-1].append(tok)
            elif tok.is_punct(")"):
                depth -= 1
                if depth == 0:
                    i += 1
                    return self._shape_arguments(args, macro, loc), i
                args[-1].append(tok)
            elif tok.is_punct(",") and depth == 1:
                nparams = len(macro.params or [])
                if macro.variadic and len(args) > nparams:
                    args[-1].append(tok)  # commas bind into __VA_ARGS__
                else:
                    args.append([])
            elif tok.kind is TokenKind.HASH:
                # a '#' inside macro args is just a token (can't start a
                # directive mid-invocation)
                args[-1].append(Token(TokenKind.PUNCT, "#", tok.location))
            else:
                args[-1].append(tok)
            i += 1
        raise PreprocessorError(
            f"unterminated invocation of macro {macro.name}", loc
        )

    @staticmethod
    def _shape_arguments(
        args: list[list[Token]], macro: Macro, loc: Location
    ) -> list[list[Token]]:
        nparams = len(macro.params or [])
        if nparams == 0 and not macro.variadic:
            if len(args) == 1 and not args[0]:
                return []
            if len(args) > 1 or args[0]:
                raise PreprocessorError(
                    f"macro {macro.name} takes no arguments", loc
                )
            return []
        if macro.variadic:
            fixed = args[:nparams]
            rest = args[nparams:]
            while len(fixed) < nparams:
                fixed.append([])
            varargs: list[Token] = []
            for k, chunk in enumerate(rest):
                if k:
                    varargs.append(Token(TokenKind.PUNCT, ",", loc))
                varargs.extend(chunk)
            return fixed + [varargs]
        if len(args) != nparams:
            raise PreprocessorError(
                f"macro {macro.name} expects {nparams} argument(s), "
                f"got {len(args)}",
                loc,
            )
        return args

    def _substitute(
        self, macro: Macro, args: list[list[Token]], invocation: Token
    ) -> list[Token]:
        params = list(macro.params or [])
        if macro.variadic:
            params.append("__VA_ARGS__")
        index = {name: k for k, name in enumerate(params)}
        expanded_args: dict[int, list[Token]] = {}

        def arg_expanded(k: int) -> list[Token]:
            if k not in expanded_args:
                expanded_args[k] = self._expand_token_list(args[k]) if k < len(args) else []
            return expanded_args[k]

        blocked = invocation.no_expand | {macro.name}
        out: list[Token] = []
        body = macro.body
        i = 0
        while i < len(body):
            tok = body[i]
            nxt = body[i + 1] if i + 1 < len(body) else None
            # Stringization: # param
            if (tok.is_punct("#") or tok.kind is TokenKind.HASH) and nxt is not None \
                    and nxt.kind is TokenKind.IDENT and nxt.value in index:
                raw = args[index[nxt.value]] if index[nxt.value] < len(args) else []
                out.append(_stringize(raw, invocation.location))
                i += 2
                continue
            # Pasting: X ## Y
            if nxt is not None and nxt.is_punct("##"):
                left = self._subst_one(tok, index, args, invocation, blocked, raw=True)
                i += 2
                if i >= len(body):
                    raise PreprocessorError(
                        "'##' at end of macro body", macro.location
                    )
                right = self._subst_one(
                    body[i], index, args, invocation, blocked, raw=True
                )
                i += 1
                pasted = _paste(left, right, invocation.location)
                # Allow chains: A ## B ## C
                while i < len(body) and body[i].is_punct("##"):
                    i += 1
                    if i >= len(body):
                        raise PreprocessorError(
                            "'##' at end of macro body", macro.location
                        )
                    right = self._subst_one(
                        body[i], index, args, invocation, blocked, raw=True
                    )
                    i += 1
                    pasted = _paste(pasted, right, invocation.location)
                out.extend(t for t in pasted if t.kind is not TokenKind.PLACEMARKER)
                continue
            if tok.kind is TokenKind.IDENT and tok.value in index:
                for at in arg_expanded(index[tok.value]):
                    out.append(
                        Token(
                            at.kind,
                            at.value,
                            invocation.location,
                            spaced=at.spaced,
                            no_expand=at.no_expand,
                        )
                    )
                i += 1
                continue
            out.append(
                Token(
                    tok.kind,
                    tok.value,
                    invocation.location,
                    spaced=tok.spaced,
                    no_expand=tok.no_expand | blocked,
                )
            )
            i += 1
        return out

    @staticmethod
    def _subst_one(
        tok: Token,
        index: dict[str, int],
        args: list[list[Token]],
        invocation: Token,
        blocked: frozenset[str] | set[str],
        raw: bool,
    ) -> list[Token]:
        """Substitute one operand of ``##`` (arguments are NOT pre-expanded)."""
        if tok.kind is TokenKind.IDENT and tok.value in index:
            k = index[tok.value]
            arg = args[k] if k < len(args) else []
            if not arg:
                return [Token(TokenKind.PLACEMARKER, "", invocation.location)]
            return [
                Token(t.kind, t.value, invocation.location, spaced=t.spaced,
                      no_expand=t.no_expand)
                for t in arg
            ]
        return [
            Token(tok.kind, tok.value, invocation.location, spaced=tok.spaced,
                  no_expand=tok.no_expand | frozenset(blocked))
        ]


def _stringize(tokens: list[Token], loc: Location) -> Token:
    parts: list[str] = []
    for k, tok in enumerate(tokens):
        if k and tok.spaced:
            parts.append(" ")
        value = tok.value
        if tok.kind in (TokenKind.STRING, TokenKind.CHAR):
            value = value.replace("\\", "\\\\").replace('"', '\\"')
        parts.append(value)
    return Token(TokenKind.STRING, '"' + "".join(parts) + '"', loc)


def _paste(left: list[Token], right: list[Token], loc: Location) -> list[Token]:
    """Paste the last token of ``left`` with the first of ``right``."""
    lead = [t for t in left[:-1]]
    tail = [t for t in right[1:]]
    ltok = left[-1] if left else Token(TokenKind.PLACEMARKER, "", loc)
    rtok = right[0] if right else Token(TokenKind.PLACEMARKER, "", loc)
    if ltok.kind is TokenKind.PLACEMARKER:
        return lead + ([rtok] if rtok.kind is not TokenKind.PLACEMARKER else []) + tail
    if rtok.kind is TokenKind.PLACEMARKER:
        return lead + [ltok] + tail
    glued_text = ltok.value + rtok.value
    glued = [t for t in tokenize_text(glued_text) if t.kind is not TokenKind.EOF]
    if len(glued) != 1:
        raise PreprocessorError(
            f"pasting '{ltok.value}' and '{rtok.value}' does not form a "
            "valid token",
            loc,
        )
    merged = Token(glued[0].kind, glued[0].value, loc,
                   no_expand=ltok.no_expand | rtok.no_expand)
    return lead + [merged] + tail


class _CondEvaluator:
    """Evaluates a ``#if`` controlling expression (integer semantics).

    Implements the full C conditional-expression grammar by recursive
    descent.  Unknown identifiers evaluate to 0; character constants to
    their code point; arithmetic is Python integer arithmetic with C-style
    truncating division.
    """

    def __init__(self, tokens: list[Token], loc: Location):
        self.tokens = [t for t in tokens if t.kind is not TokenKind.EOF]
        self.loc = loc
        self.pos = 0

    def parse(self) -> int:
        value = self._ternary()
        if self.pos != len(self.tokens):
            raise PreprocessorError(
                "trailing tokens in #if expression", self.loc
            )
        return value

    def _peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _accept(self, value: str) -> bool:
        tok = self._peek()
        if tok is not None and tok.is_punct(value):
            self.pos += 1
            return True
        return False

    def _expect(self, value: str) -> None:
        if not self._accept(value):
            raise PreprocessorError(
                f"expected '{value}' in #if expression", self.loc
            )

    def _ternary(self) -> int:
        cond = self._logical_or()
        if self._accept("?"):
            then = self._ternary()
            self._expect(":")
            other = self._ternary()
            return then if cond else other
        return cond

    def _logical_or(self) -> int:
        value = self._logical_and()
        while self._accept("||"):
            rhs = self._logical_and()
            value = 1 if (value or rhs) else 0
        return value

    def _logical_and(self) -> int:
        value = self._bit_or()
        while self._accept("&&"):
            rhs = self._bit_or()
            value = 1 if (value and rhs) else 0
        return value

    def _bit_or(self) -> int:
        value = self._bit_xor()
        while self._accept("|"):
            value |= self._bit_xor()
        return value

    def _bit_xor(self) -> int:
        value = self._bit_and()
        while self._accept("^"):
            value ^= self._bit_and()
        return value

    def _bit_and(self) -> int:
        value = self._equality()
        while self._accept("&"):
            value &= self._equality()
        return value

    def _equality(self) -> int:
        value = self._relational()
        while True:
            if self._accept("=="):
                value = 1 if value == self._relational() else 0
            elif self._accept("!="):
                value = 1 if value != self._relational() else 0
            else:
                return value

    def _relational(self) -> int:
        value = self._shift()
        while True:
            if self._accept("<="):
                value = 1 if value <= self._shift() else 0
            elif self._accept(">="):
                value = 1 if value >= self._shift() else 0
            elif self._accept("<"):
                value = 1 if value < self._shift() else 0
            elif self._accept(">"):
                value = 1 if value > self._shift() else 0
            else:
                return value

    def _shift(self) -> int:
        value = self._additive()
        while True:
            if self._accept("<<"):
                value <<= self._additive() & 63
            elif self._accept(">>"):
                value >>= self._additive() & 63
            else:
                return value

    def _additive(self) -> int:
        value = self._multiplicative()
        while True:
            if self._accept("+"):
                value += self._multiplicative()
            elif self._accept("-"):
                value -= self._multiplicative()
            else:
                return value

    def _multiplicative(self) -> int:
        value = self._unary()
        while True:
            if self._accept("*"):
                value *= self._unary()
            elif self._accept("/"):
                rhs = self._unary()
                if rhs == 0:
                    raise PreprocessorError("division by zero in #if", self.loc)
                value = int(value / rhs)  # C truncates toward zero
            elif self._accept("%"):
                rhs = self._unary()
                if rhs == 0:
                    raise PreprocessorError("division by zero in #if", self.loc)
                value = value - int(value / rhs) * rhs
            else:
                return value

    def _unary(self) -> int:
        if self._accept("-"):
            return -self._unary()
        if self._accept("+"):
            return self._unary()
        if self._accept("!"):
            return 0 if self._unary() else 1
        if self._accept("~"):
            return ~self._unary()
        return self._primary()

    def _primary(self) -> int:
        tok = self._peek()
        if tok is None:
            raise PreprocessorError("truncated #if expression", self.loc)
        if tok.is_punct("("):
            self.pos += 1
            value = self._ternary()
            self._expect(")")
            return value
        self.pos += 1
        if tok.kind is TokenKind.NUMBER:
            return parse_int_constant(tok.value, self.loc)
        if tok.kind is TokenKind.CHAR:
            return char_constant_value(tok.value)
        if tok.kind is TokenKind.IDENT:
            return 0  # undefined identifiers are 0 in #if
        raise PreprocessorError(
            f"unexpected token {tok.value!r} in #if expression", self.loc
        )


def parse_int_constant(text: str, loc: Location | None = None) -> int:
    """Parse a C integer constant (with optional U/L suffixes)."""
    body = text.rstrip("uUlL")
    try:
        if body.lower().startswith("0x"):
            return int(body, 16)
        if body.lower().startswith("0b"):
            return int(body, 2)
        if body.startswith("0") and len(body) > 1:
            return int(body, 8)
        return int(body, 10)
    except ValueError:
        raise PreprocessorError(
            f"invalid integer constant {text!r}", loc or Location.unknown()
        ) from None


_SIMPLE_ESCAPES = {
    "n": 10, "t": 9, "r": 13, "0": 0, "a": 7, "b": 8, "f": 12, "v": 11,
    "\\": 92, "'": 39, '"': 34, "?": 63,
}


def char_constant_value(text: str) -> int:
    """Value of a character constant token such as ``'a'`` or ``'\\n'``."""
    body = text
    if body.startswith("L"):
        body = body[1:]
    body = body[1:-1]  # strip quotes
    if not body:
        return 0
    if body[0] != "\\":
        return ord(body[0])
    if len(body) >= 2 and body[1] in _SIMPLE_ESCAPES:
        return _SIMPLE_ESCAPES[body[1]]
    if len(body) >= 2 and body[1] == "x":
        return int(body[2:] or "0", 16) & 0xFF
    if body[1:].isdigit():
        return int(body[1:], 8) & 0xFF
    return ord(body[1])
