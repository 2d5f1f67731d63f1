"""Tests for the token-based preprocessor."""

import pytest

from repro.cfront.errors import PreprocessorError
from repro.cfront.lexer import Lexer, TokenKind
from repro.cfront.preprocessor import (
    IncludeResolver,
    Preprocessor,
    char_constant_value,
    parse_int_constant,
)


def pp(text, resolver=None, predefined=None):
    p = Preprocessor(resolver=resolver, predefined=predefined)
    tokens = p.preprocess_text(text)
    return [t.value for t in tokens if t.kind is not TokenKind.EOF]


class TestObjectMacros:
    def test_simple_expansion(self):
        assert pp("#define N 10\nint a[N];") == ["int", "a", "[", "10", "]", ";"]

    def test_empty_body(self):
        assert pp("#define NOTHING\nNOTHING x NOTHING") == ["x"]

    def test_chained_expansion(self):
        assert pp("#define A B\n#define B 3\nA") == ["3"]

    def test_self_reference_does_not_loop(self):
        assert pp("#define X X\nX") == ["X"]

    def test_mutual_recursion_stops(self):
        assert pp("#define A B\n#define B A\nA") == ["A"]

    def test_redefinition_last_wins(self):
        assert pp("#define X 1\n#define X 2\nX") == ["2"]

    def test_undef(self):
        assert pp("#define X 1\n#undef X\nX") == ["X"]

    def test_predefined(self):
        assert pp("STDC", predefined={"STDC": "1"}) == ["1"]

    def test_expansion_in_multiple_places(self):
        assert pp("#define V v\nV = V;") == ["v", "=", "v", ";"]


class TestFunctionMacros:
    def test_basic(self):
        assert pp("#define SQ(x) ((x)*(x))\nSQ(a)") == \
            ["(", "(", "a", ")", "*", "(", "a", ")", ")"]

    def test_two_params(self):
        assert pp("#define ADD(a,b) a+b\nADD(1,2)") == ["1", "+", "2"]

    def test_name_without_parens_not_invoked(self):
        assert pp("#define F(x) x\nF") == ["F"]

    def test_nested_call_in_argument(self):
        assert pp("#define ID(x) x\nID(ID(y))") == ["y"]

    def test_parenthesized_commas_bind(self):
        assert pp("#define FST(a) a\nFST((x,y))") == ["(", "x", ",", "y", ")"]

    def test_empty_argument(self):
        assert pp("#define TWO(a,b) a b\nTWO(,z)") == ["z"]

    def test_multiline_invocation(self):
        assert pp("#define F(a,b) a-b\nF(1,\n2)") == ["1", "-", "2"]

    def test_arguments_are_expanded(self):
        assert pp("#define N 5\n#define ID(x) x\nID(N)") == ["5"]

    def test_wrong_arity_raises(self):
        with pytest.raises(PreprocessorError):
            pp("#define F(a,b) a\nF(1)")

    def test_no_args_macro_with_args_raises(self):
        with pytest.raises(PreprocessorError):
            pp("#define F() 1\nF(x)")

    def test_unterminated_invocation(self):
        with pytest.raises(PreprocessorError):
            pp("#define F(a) a\nF(1")


class TestStringizeAndPaste:
    def test_stringize(self):
        assert pp("#define S(x) #x\nS(hello)") == ['"hello"']

    def test_stringize_multiple_tokens(self):
        assert pp("#define S(x) #x\nS(a + b)") == ['"a + b"']

    def test_stringize_preserves_strings(self):
        out = pp('#define S(x) #x\nS("q")')
        assert out == ['"\\"q\\""']

    def test_paste_identifiers(self):
        assert pp("#define CAT(a,b) a##b\nCAT(foo,bar)") == ["foobar"]

    def test_paste_makes_number(self):
        assert pp("#define CAT(a,b) a##b\nCAT(1,2)") == ["12"]

    def test_paste_with_empty_arg(self):
        assert pp("#define CAT(a,b) a##b\nCAT(x,)") == ["x"]

    def test_paste_chain(self):
        assert pp("#define CAT3(a,b,c) a##b##c\nCAT3(x,y,z)") == ["xyz"]

    def test_paste_invalid_token_raises(self):
        with pytest.raises(PreprocessorError):
            pp("#define CAT(a,b) a##b\nCAT(+,+)")  # '++' ok... use bad pair
            pp("#define CAT(a,b) a##b\nCAT(<,>)")

    def test_pasted_arg_not_preexpanded(self):
        # Classic: ## operands are raw argument tokens.
        out = pp("#define A 1\n#define CAT(a,b) a##b\nCAT(A,2)")
        assert out == ["A2"]


class TestVariadic:
    def test_va_args(self):
        assert pp("#define F(...) __VA_ARGS__\nF(1, 2)") == ["1", ",", "2"]

    def test_named_plus_va(self):
        assert pp("#define F(fmt, ...) fmt: __VA_ARGS__\nF(x, a, b)") == \
            ["x", ":", "a", ",", "b"]

    def test_empty_va(self):
        assert pp("#define F(a, ...) a __VA_ARGS__\nF(x)") == ["x"]


class TestConditionals:
    def test_if_true(self):
        assert pp("#if 1\nyes\n#endif") == ["yes"]

    def test_if_false(self):
        assert pp("#if 0\nno\n#endif") == []

    def test_else(self):
        assert pp("#if 0\na\n#else\nb\n#endif") == ["b"]

    def test_elif(self):
        assert pp("#if 0\na\n#elif 1\nb\n#else\nc\n#endif") == ["b"]

    def test_elif_after_taken_skipped(self):
        assert pp("#if 1\na\n#elif 1\nb\n#endif") == ["a"]

    def test_ifdef(self):
        assert pp("#define X\n#ifdef X\nyes\n#endif") == ["yes"]

    def test_ifndef(self):
        assert pp("#ifndef X\nyes\n#endif") == ["yes"]

    def test_defined_operator(self):
        assert pp("#define X\n#if defined(X) && !defined(Y)\nok\n#endif") == ["ok"]

    def test_defined_without_parens(self):
        assert pp("#define X\n#if defined X\nok\n#endif") == ["ok"]

    def test_nested_conditionals(self):
        text = "#if 1\n#if 0\na\n#else\nb\n#endif\n#endif"
        assert pp(text) == ["b"]

    def test_inactive_region_skips_directives(self):
        text = "#if 0\n#error should not fire\n#endif\nok"
        assert pp(text) == ["ok"]

    def test_inactive_region_skips_defines(self):
        assert pp("#if 0\n#define X 1\n#endif\nX") == ["X"]

    def test_undefined_identifier_is_zero(self):
        assert pp("#if UNDEF\nno\n#else\nyes\n#endif") == ["yes"]

    def test_macro_in_condition(self):
        assert pp("#define N 3\n#if N > 2\nbig\n#endif") == ["big"]

    def test_arithmetic(self):
        assert pp("#if (1 + 2) * 3 == 9\nok\n#endif") == ["ok"]

    def test_ternary(self):
        assert pp("#if 1 ? 0 : 1\nno\n#else\nyes\n#endif") == ["yes"]

    def test_char_constant(self):
        assert pp("#if 'A' == 65\nok\n#endif") == ["ok"]

    def test_unterminated_if_raises(self):
        with pytest.raises(PreprocessorError):
            pp("#if 1\nx")

    def test_else_without_if_raises(self):
        with pytest.raises(PreprocessorError):
            pp("#else\n#endif")

    def test_endif_without_if_raises(self):
        with pytest.raises(PreprocessorError):
            pp("#endif")

    def test_duplicate_else_raises(self):
        with pytest.raises(PreprocessorError):
            pp("#if 1\n#else\n#else\n#endif")

    def test_division_by_zero_raises(self):
        with pytest.raises(PreprocessorError):
            pp("#if 1/0\n#endif")

    def test_shift_and_bitops(self):
        assert pp("#if (1 << 4) | 1 == 17\nok\n#endif") == ["ok"]


class TestIncludes:
    def test_virtual_include(self):
        resolver = IncludeResolver(virtual_files={"v.h": "int v;"})
        assert pp('#include "v.h"\nint w;', resolver) == \
            ["int", "v", ";", "int", "w", ";"]

    def test_angled_builtin(self):
        out = pp("#include <stddef.h>\n")
        assert "size_t" in out

    def test_include_not_found(self):
        with pytest.raises(PreprocessorError):
            pp('#include "missing.h"')

    def test_include_guard_pattern(self):
        header = "#ifndef H\n#define H\nint once;\n#endif"
        resolver = IncludeResolver(virtual_files={"g.h": header})
        out = pp('#include "g.h"\n#include "g.h"', resolver)
        assert out.count("once") == 1

    def test_pragma_once(self):
        header = "#pragma once\nint once;"
        resolver = IncludeResolver(virtual_files={"p.h": header})
        out = pp('#include "p.h"\n#include "p.h"', resolver)
        assert out.count("once") == 1

    def test_nested_includes(self):
        resolver = IncludeResolver(virtual_files={
            "a.h": '#include "b.h"\nint a;',
            "b.h": "int b;",
        })
        out = pp('#include "a.h"', resolver)
        assert out == ["int", "b", ";", "int", "a", ";"]

    def test_include_depth_limit(self):
        resolver = IncludeResolver(virtual_files={"r.h": '#include "r.h"'})
        with pytest.raises(PreprocessorError):
            pp('#include "r.h"', resolver)

    def test_macro_header_name(self):
        resolver = IncludeResolver(virtual_files={"m.h": "int m;"})
        assert pp('#define HDR "m.h"\n#include HDR', resolver) == \
            ["int", "m", ";"]

    def test_error_directive(self):
        with pytest.raises(PreprocessorError) as exc:
            pp("#error custom message")
        assert "custom message" in str(exc.value)

    def test_pragma_ignored(self):
        assert pp("#pragma GCC yadda\nint x;") == ["int", "x", ";"]

    def test_unknown_directive_raises(self):
        with pytest.raises(PreprocessorError):
            pp("#frobnicate")


class TestConstantHelpers:
    def test_parse_int_decimal(self):
        assert parse_int_constant("42") == 42

    def test_parse_int_hex(self):
        assert parse_int_constant("0xFF") == 255

    def test_parse_int_octal(self):
        assert parse_int_constant("017") == 15

    def test_parse_int_suffixes(self):
        assert parse_int_constant("42UL") == 42
        assert parse_int_constant("1ll") == 1

    def test_parse_int_invalid(self):
        with pytest.raises(PreprocessorError):
            parse_int_constant("abc")

    def test_char_simple(self):
        assert char_constant_value("'a'") == 97

    def test_char_escapes(self):
        assert char_constant_value("'\\n'") == 10
        assert char_constant_value("'\\0'") == 0
        assert char_constant_value("'\\t'") == 9
        assert char_constant_value("'\\\\'") == 92

    def test_char_hex_escape(self):
        assert char_constant_value("'\\x41'") == 65

    def test_char_octal_escape(self):
        assert char_constant_value("'\\101'") == 65

    def test_wide_char(self):
        assert char_constant_value("L'a'") == 97


class TestDynamicMacros:
    def test_line(self):
        assert pp("x\n__LINE__") == ["x", "2"]

    def test_file(self):
        p = Preprocessor()
        from repro.cfront.source import SourceFile
        from repro.cfront.lexer import TokenKind
        tokens = p.preprocess(SourceFile("dir/me.c", "__FILE__"))
        values = [t.value for t in tokens if t.kind is not TokenKind.EOF]
        assert values == ['"dir/me.c"']

    def test_line_inside_macro_expansion(self):
        out = pp("#define HERE __LINE__\n\nHERE")
        assert out == ["3"]

    def test_line_usable_in_conditionals(self):
        assert pp("#if __LINE__ == 1\nfirst\n#endif") == ["first"]


class TestPredefinedMacros:
    def test_defaults_expand(self):
        assert pp("__STDC__ __STDC_VERSION__ __repro_cla__") == \
            ["1", "199901L", "1"]

    def test_override_wins(self):
        assert pp("__STDC_VERSION__ __STDC__",
                  predefined={"__STDC_VERSION__": "201112L"}) == \
            ["201112L", "1"]
        # The override is this preprocessor's alone.
        assert pp("__STDC_VERSION__") == ["199901L"]

    def test_defaults_are_lexed_once(self, monkeypatch):
        """A preprocessor is built per unit; the default macro bodies are
        lexed once per process, not once per unit."""
        Preprocessor()
        lexed = []
        tokens = Lexer.tokens

        def counting(self):
            lexed.append(self.source.filename)
            return tokens(self)

        monkeypatch.setattr(Lexer, "tokens", counting)
        Preprocessor()
        assert "<predefined>" not in lexed
        Preprocessor(predefined={"EXTRA": "2"})
        assert lexed == ["<predefined>"]

    def test_shared_bodies_survive_expansion(self):
        # Expansion clones a body: a later preprocessor still sees the
        # default tokens, with their own locations.
        first = Preprocessor().preprocess_text("__STDC__\n#undef __STDC__\n"
                                               "#define __STDC__ 0\n__STDC__")
        assert [t.value for t in first][:2] == ["1", "0"]
        second = Preprocessor().preprocess_text("\n__STDC__", "b.c")
        assert second[0].value == "1"
        assert second[0].location.filename == "b.c"
