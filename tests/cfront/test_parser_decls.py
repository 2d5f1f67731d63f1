"""Tests for declaration parsing: declarators, structs, enums, typedefs."""

import pytest

from repro.cfront import (
    ArrayType,
    EnumType,
    FunctionType,
    IntType,
    ParseError,
    PointerType,
    StructType,
    UnionType,
    VoidType,
    parse_c,
    parse_tokens,
    tokenize_text,
)
from repro.cfront import cast as A


def decls(text):
    unit = parse_c(text)
    return {d.name: d for d in unit.items if isinstance(d, A.Decl)}


def decl_type(text, name):
    return decls(text)[name].type


class TestBasicDeclarations:
    def test_int(self):
        t = decl_type("int x;", "x")
        assert isinstance(t, IntType) and t.kind == "int" and t.signed

    def test_short(self):
        assert decl_type("short x;", "x").kind == "short"

    def test_unsigned(self):
        t = decl_type("unsigned long x;", "x")
        assert t.kind == "long" and not t.signed

    def test_long_long(self):
        assert decl_type("long long x;", "x").kind == "long long"

    def test_specifier_order_irrelevant(self):
        assert decl_type("long unsigned int x;", "x").kind == "long"

    def test_same_words_any_order_give_equal_types(self):
        a = decl_type("unsigned long int x;", "x")
        b = decl_type("long unsigned int x;", "x")
        assert a == b and not a.signed
        assert decl_type("const long unsigned x;", "x") == \
            decl_type("unsigned const long x;", "x")

    def test_long_long_differs_from_long(self):
        # Same set of words, so the count of ``long`` must tell them apart.
        types = decls("long a; long long b; long int c; int long long d;")
        assert types["a"].type.kind == "long"
        assert types["b"].type.kind == "long long"
        assert types["c"].type == types["a"].type
        assert types["d"].type == types["b"].type
        assert types["a"].type != types["b"].type
        assert decl_type("unsigned long long x;", "x") != \
            decl_type("unsigned long x;", "x")

    def test_qualifiers_tell_types_apart(self):
        types = decls("long a; const long b; volatile long c;")
        assert types["a"].type != types["b"].type
        assert types["b"].type.qualifiers == frozenset({"const"})
        assert types["c"].type.qualifiers == frozenset({"volatile"})

    def test_char_signedness(self):
        assert decl_type("char c;", "c").signed
        assert not decl_type("unsigned char c;", "c").signed

    def test_float_double(self):
        assert decl_type("double d;", "d").kind == "double"
        assert decl_type("long double d;", "d").kind == "long double"
        assert decl_type("float f;", "f").kind == "float"

    def test_multiple_declarators(self):
        d = decls("int a, *b, c[3];")
        assert isinstance(d["a"].type, IntType)
        assert isinstance(d["b"].type, PointerType)
        assert isinstance(d["c"].type, ArrayType)

    def test_implicit_int_storage(self):
        d = decls("static x;")
        assert d["x"].storage == "static"
        assert isinstance(d["x"].type, IntType)


class TestPointersAndArrays:
    def test_pointer(self):
        t = decl_type("int *p;", "p")
        assert isinstance(t, PointerType)
        assert isinstance(t.target, IntType)

    def test_pointer_to_pointer(self):
        t = decl_type("int **pp;", "pp")
        assert isinstance(t.target, PointerType)

    def test_const_pointer_qualifiers(self):
        t = decl_type("const int * const p;", "p")
        assert isinstance(t, PointerType)
        assert "const" in t.qualifiers
        assert "const" in t.target.qualifiers

    def test_array_size(self):
        t = decl_type("int a[10];", "a")
        assert t.length == 10

    def test_array_size_expression(self):
        assert decl_type("int a[2 * 5];", "a").length == 10

    def test_array_unsized(self):
        assert decl_type("extern int a[];", "a").length is None

    def test_array_of_arrays(self):
        t = decl_type("int a[2][3];", "a")
        assert t.length == 2
        assert isinstance(t.element, ArrayType)
        assert t.element.length == 3

    def test_array_of_pointers(self):
        t = decl_type("int *a[4];", "a")
        assert isinstance(t, ArrayType)
        assert isinstance(t.element, PointerType)

    def test_pointer_to_array(self):
        t = decl_type("int (*p)[4];", "p")
        assert isinstance(t, PointerType)
        assert isinstance(t.target, ArrayType)

    def test_enum_constant_as_array_size(self):
        t = decl_type("enum { N = 7 }; int a[N];", "a")
        assert t.length == 7

    def test_sizeof_in_array_size(self):
        t = decl_type("int a[sizeof(int)];", "a")
        assert t.length == 4


class TestFunctionDeclarators:
    def test_prototype(self):
        t = decl_type("int f(int a, char *b);", "f")
        assert isinstance(t, FunctionType)
        assert len(t.params) == 2
        assert t.params[0].name == "a"
        assert isinstance(t.params[1].type, PointerType)

    def test_void_params(self):
        t = decl_type("int f(void);", "f")
        assert t.params == ()
        assert not t.unspecified_params

    def test_empty_parens_unspecified(self):
        t = decl_type("int f();", "f")
        assert t.unspecified_params

    def test_variadic(self):
        t = decl_type("int printf2(const char *fmt, ...);", "printf2")
        assert t.variadic

    def test_function_pointer(self):
        t = decl_type("int (*fp)(int, int);", "fp")
        assert isinstance(t, PointerType)
        assert isinstance(t.target, FunctionType)

    def test_function_returning_pointer(self):
        t = decl_type("int *f(void);", "f")
        assert isinstance(t, FunctionType)
        assert isinstance(t.return_type, PointerType)

    def test_array_of_function_pointers(self):
        t = decl_type("int (*table[4])(void);", "table")
        assert isinstance(t, ArrayType)
        assert isinstance(t.element, PointerType)
        assert isinstance(t.element.target, FunctionType)

    def test_function_pointer_parameter(self):
        t = decl_type("void qsort2(int (*cmp)(int, int));", "qsort2")
        p = t.params[0]
        assert isinstance(p.type, PointerType)
        assert isinstance(p.type.target, FunctionType)

    def test_array_param_decays(self):
        t = decl_type("int f(int a[10]);", "f")
        assert isinstance(t.params[0].type, PointerType)

    def test_unnamed_params(self):
        t = decl_type("int f(int, char);", "f")
        assert t.params[0].name is None

    def test_function_returning_function_pointer(self):
        t = decl_type("int (*signal2(int sig))(int);", "signal2")
        assert isinstance(t, FunctionType)
        assert isinstance(t.return_type, PointerType)
        assert isinstance(t.return_type.target, FunctionType)


class TestStructsAndUnions:
    def test_struct_definition(self):
        t = decl_type("struct S { int x; char *y; } s;", "s")
        assert isinstance(t, StructType)
        assert t.tag == "S"
        assert [f.name for f in t.fields] == ["x", "y"]

    def test_union(self):
        t = decl_type("union U { int i; float f; } u;", "u")
        assert isinstance(t, UnionType)

    def test_struct_reference_same_object(self):
        d = decls("struct S { int x; }; struct S a; struct S b;")
        assert d["a"].type is d["b"].type

    def test_forward_reference(self):
        t = decl_type("struct Node; struct Node *p;", "p")
        assert isinstance(t.target, StructType)
        assert not t.target.is_complete

    def test_self_referential(self):
        t = decl_type("struct N { int v; struct N *next; } n;", "n")
        next_field = t.field_named("next")
        assert next_field.type.target is t

    def test_anonymous_struct(self):
        t = decl_type("struct { int x; } s;", "s")
        assert t.tag.startswith("<anonymous")
        assert t.is_complete

    def test_bitfields(self):
        t = decl_type("struct B { int a : 3; unsigned b : 5; int : 2; } s;", "s")
        assert t.field_named("a").bitwidth == 3
        assert t.field_named("b").bitwidth == 5

    def test_nested_struct(self):
        t = decl_type("struct O { struct I { int v; } inner; } o;", "o")
        inner = t.field_named("inner")
        assert isinstance(inner.type, StructType)
        assert inner.type.tag == "I"

    def test_anonymous_member_injection(self):
        t = decl_type("struct S { union { int a; float b; }; int c; } s;", "s")
        assert t.field_named("a") is not None
        assert t.field_named("c") is not None

    def test_field_lookup_missing(self):
        t = decl_type("struct S { int x; } s;", "s")
        assert t.field_named("zzz") is None

    def test_pure_type_declaration_produces_no_decl(self):
        unit = parse_c("struct S { int x; };")
        assert unit.items == []


class TestEnums:
    def test_enum_values(self):
        t = decl_type("enum E { A, B, C } e;", "e")
        assert isinstance(t, EnumType)
        assert t.enumerators == [("A", 0), ("B", 1), ("C", 2)]

    def test_enum_explicit_values(self):
        t = decl_type("enum E { A = 5, B, C = 10 } e;", "e")
        assert t.enumerators == [("A", 5), ("B", 6), ("C", 10)]

    def test_enum_constant_expressions(self):
        t = decl_type("enum E { A = 1 << 4 } e;", "e")
        assert t.enumerators == [("A", 16)]

    def test_enum_trailing_comma(self):
        t = decl_type("enum E { A, B, } e;", "e")
        assert len(t.enumerators) == 2

    def test_enum_reference(self):
        t = decl_type("enum E { A }; enum E e;", "e")
        assert isinstance(t, EnumType)


class TestTypedefs:
    def test_simple_typedef(self):
        t = decl_type("typedef int myint; myint x;", "x")
        assert isinstance(t, IntType)

    def test_pointer_typedef(self):
        t = decl_type("typedef char *str; str s;", "s")
        assert isinstance(t, PointerType)

    def test_struct_typedef(self):
        t = decl_type("typedef struct S { int v; } S_t; S_t s;", "s")
        assert isinstance(t, StructType)

    def test_typedef_in_declarator(self):
        t = decl_type("typedef int T; T *p;", "p")
        assert isinstance(t, PointerType)
        assert isinstance(t.target, IntType)

    def test_typedef_shadowed_by_local(self):
        # After `int T;` in a function, T is a variable, not a type.
        unit = parse_c(
            "typedef int T;\nvoid f(void) { int T; T = 1; }"
        )
        assert len(unit.functions()) == 1

    def test_typedef_function_type(self):
        t = decl_type("typedef int handler(int); handler *h;", "h")
        assert isinstance(t, PointerType)
        assert isinstance(t.target, FunctionType)


class TestFunctionDefinitions:
    def test_simple(self):
        unit = parse_c("int f(int a) { return a; }")
        fn = unit.functions()[0]
        assert fn.name == "f"
        assert [p.name for p in fn.params] == ["a"]

    def test_knr_style(self):
        unit = parse_c("int f(a, b) int a; char *b; { return a; }")
        fn = unit.functions()[0]
        assert isinstance(fn.type, FunctionType)
        assert isinstance(fn.type.params[1].type, PointerType)

    def test_knr_default_int(self):
        unit = parse_c("int f(a) { return a; }")
        fn = unit.functions()[0]
        assert isinstance(fn.type.params[0].type, IntType)

    def test_void_return(self):
        unit = parse_c("void f(void) { }")
        assert isinstance(unit.functions()[0].type.return_type, VoidType)

    def test_static_function(self):
        unit = parse_c("static int f(void) { return 0; }")
        assert unit.functions()[0].storage == "static"

    def test_enclosing_function_recorded(self):
        unit = parse_c("void f(void) { int local; }")
        body = unit.functions()[0].body
        local = body.items[0]
        assert isinstance(local, A.Decl)
        assert local.enclosing_function == "f"


class TestGnuNoise:
    def test_attribute_ignored(self):
        d = decls("int x __attribute__((aligned(8)));")
        assert "x" in d

    def test_extension_ignored(self):
        d = decls("__extension__ int x;")
        assert "x" in d

    def test_inline_ignored(self):
        unit = parse_c("inline int f(void) { return 0; }")
        assert unit.functions()[0].name == "f"

    def test_restrict(self):
        t = decl_type("int * restrict p;", "p")
        assert isinstance(t, PointerType)


class TestErrors:
    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse_c("int x int y;")

    def test_unbalanced_brace(self):
        with pytest.raises(ParseError):
            parse_c("void f(void) {")

    def test_garbage(self):
        with pytest.raises(ParseError):
            parse_c("42;")

    def test_error_has_location(self):
        with pytest.raises(ParseError) as exc:
            parse_c("int x;\nint ;;;(", filename="z.c")
        assert exc.value.location.filename == "z.c"
        assert exc.value.location.line == 2

    def test_token_list_must_end_in_eof(self):
        tokens = tokenize_text("int x;")
        assert parse_tokens(tokens).items[0].name == "x"
        for bad in ([], tokens[:-1]):
            with pytest.raises(ValueError, match="EOF"):
                parse_tokens(bad)
