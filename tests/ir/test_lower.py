"""Tests for AST -> primitive assignment lowering."""

from repro.cfront import parse_c
from repro.ir import (
    PrimitiveKind,
    Strength,
    lower_translation_unit,
)
from repro.ir.lower import Contribution, Value


def lower(src, filename="t.c", **kwargs):
    return lower_translation_unit(parse_c(src, filename=filename), **kwargs)


def rendered(ir):
    return [str(a) for a in ir.assignments]


def plain(ir):
    """(kind, dst, src) triples with file-qualified prefixes stripped."""
    def short(name):
        return name.rsplit("::", 1)[-1]

    return [(a.kind, short(a.dst), short(a.src)) for a in ir.assignments]


class TestFiveKinds:
    def test_copy(self):
        ir = lower("int *p, *q; void f(void) { p = q; }")
        assert plain(ir) == [(PrimitiveKind.COPY, "p", "q")]

    def test_addr(self):
        ir = lower("int x, *p; void f(void) { p = &x; }")
        assert plain(ir) == [(PrimitiveKind.ADDR, "p", "x")]

    def test_store(self):
        ir = lower("int **pp, *q; void f(void) { *pp = q; }")
        assert plain(ir) == [(PrimitiveKind.STORE, "pp", "q")]

    def test_load(self):
        ir = lower("int **pp, *q; void f(void) { q = *pp; }")
        assert plain(ir) == [(PrimitiveKind.LOAD, "q", "pp")]

    def test_store_load(self):
        ir = lower("int **a, **b; void f(void) { *a = *b; }")
        assert plain(ir) == [(PrimitiveKind.STORE_LOAD, "a", "b")]

    def test_figure4_program(self):
        src = """
        int x, y, z, *p, *q;
        void main1(void) { x = y; x = z; *p = z; p = q; q = &y; x = *p; }
        """
        ir = lower(src, filename="a.c")
        assert rendered(ir) == [
            "x = y", "x = z", "*p = z", "p = q", "q = &y", "x = *p",
        ]


class TestNormalization:
    def test_deref_of_addr_collapses(self):
        ir = lower("int x, y; void f(void) { x = *&y; }")
        assert plain(ir) == [(PrimitiveKind.COPY, "x", "y")]

    def test_addr_of_deref_collapses(self):
        ir = lower("int *p, *q; void f(void) { p = &*q; }")
        assert plain(ir) == [(PrimitiveKind.COPY, "p", "q")]

    def test_double_deref_uses_temp(self):
        ir = lower("int ***ppp, *q; void f(void) { q = **ppp; }")
        kinds = [a.kind for a in ir.assignments]
        assert kinds == [PrimitiveKind.LOAD, PrimitiveKind.LOAD]
        # t = *ppp; q = *t
        assert ir.assignments[0].src.endswith("ppp")
        assert ir.assignments[1].dst.endswith("q")

    def test_store_of_addr_uses_temp(self):
        ir = lower("int **pp, x; void f(void) { *pp = &x; }")
        kinds = [a.kind for a in ir.assignments]
        assert kinds == [PrimitiveKind.ADDR, PrimitiveKind.STORE]

    def test_self_copy_dropped(self):
        ir = lower("int *p; void f(void) { p = p; }")
        assert ir.assignments == []

    def test_parenthesized_lvalue(self):
        ir = lower("int *p, *q; void f(void) { (p) = q; }")
        assert plain(ir) == [(PrimitiveKind.COPY, "p", "q")]

    def test_cast_is_transparent(self):
        ir = lower("int *p; char *c; void f(void) { c = (char *)p; }")
        assert plain(ir) == [(PrimitiveKind.COPY, "c", "p")]


class TestOperations:
    def test_binary_strength_recorded(self):
        ir = lower("int x, y, z; void f(void) { x = y + z; }")
        assert len(ir.assignments) == 2
        assert all(a.op == "+" for a in ir.assignments)
        assert all(a.strength is Strength.STRONG for a in ir.assignments)

    def test_nested_op_takes_weakest(self):
        ir = lower("int x, y; void f(void) { x = (y + 1) * 2; }")
        [a] = ir.assignments
        assert a.strength is Strength.WEAK

    def test_shift_second_arg_dropped(self):
        # x = y << z: z's contribution has strength NONE -> no assignment.
        ir = lower("int x, y, z; void f(void) { x = y << z; }")
        assert [(a.dst.split("::")[-1], a.src.split("::")[-1])
                for a in ir.assignments] == [("x", "y")]
        assert ir.assignments[0].strength is Strength.WEAK

    def test_logical_not_produces_nothing(self):
        ir = lower("int x, y; void f(void) { x = !y; }")
        assert ir.assignments == []

    def test_comparison_produces_nothing(self):
        ir = lower("int x, y, z; void f(void) { x = y < z; }")
        assert ir.assignments == []

    def test_compound_assignment(self):
        ir = lower("int x, y; void f(void) { x += y; }")
        [a] = ir.assignments
        assert a.op == "+" and a.strength is Strength.STRONG

    def test_compound_shift_none_arg(self):
        ir = lower("int x, y; void f(void) { x <<= y; }")
        assert ir.assignments == []  # shift count never flows

    def test_chained_assignment(self):
        ir = lower("int *p, *q, *r; void f(void) { p = q = r; }")
        assert plain(ir) == [
            (PrimitiveKind.COPY, "q", "r"),
            (PrimitiveKind.COPY, "p", "q"),
        ]

    def test_conditional_both_arms_flow(self):
        ir = lower("int c, *p, *q, *r; void f(void) { p = c ? q : r; }")
        pairs = {(a.dst.split("::")[-1], a.src.split("::")[-1])
                 for a in ir.assignments}
        assert ("p", "q") in pairs and ("p", "r") in pairs

    def test_increment_value_passthrough(self):
        ir = lower("int *p, *q; void f(void) { p = q++; }")
        assert plain(ir) == [(PrimitiveKind.COPY, "p", "q")]


class TestStructs:
    SRC = """
    struct S { int *x; int *y; } A, B;
    int z;
    void f(void) {
        int *p, *q, *r, *s2;
        A.x = &z;
        p = A.x;
        q = A.y;
        r = B.x;
        s2 = B.y;
    }
    """

    def test_field_based_uses_field_objects(self):
        ir = lower(self.SRC)
        assert (PrimitiveKind.ADDR, "S.x", "z") in plain(ir)
        assert (PrimitiveKind.COPY, "p", "S.x") in plain(ir)
        assert (PrimitiveKind.COPY, "r", "S.x") in plain(ir)

    def test_field_independent_uses_base_objects(self):
        ir = lower(self.SRC, field_based=False)
        triples = plain(ir)
        assert (PrimitiveKind.ADDR, "A", "z") in triples
        assert (PrimitiveKind.COPY, "p", "A") in triples
        assert (PrimitiveKind.COPY, "r", "B") in triples

    def test_arrow_field_based(self):
        ir = lower("struct S { int *f; } *sp; int *p;"
                   "void g(void) { p = sp->f; }")
        assert (PrimitiveKind.COPY, "p", "S.f") in plain(ir)

    def test_arrow_field_independent_is_load(self):
        ir = lower("struct S { int *f; } *sp; int *p;"
                   "void g(void) { p = sp->f; }", field_based=False)
        assert (PrimitiveKind.LOAD, "p", "sp") in plain(ir)

    def test_arrow_store_field_independent(self):
        ir = lower("struct S { int *f; } *sp; int *p;"
                   "void g(void) { sp->f = p; }", field_based=False)
        assert (PrimitiveKind.STORE, "sp", "p") in plain(ir)

    def test_same_field_name_different_structs_distinct(self):
        ir = lower("""
        struct A { int *x; } a; struct B { int *x; } b;
        int *p, *q;
        void f(void) { p = a.x; q = b.x; }
        """)
        triples = plain(ir)
        assert (PrimitiveKind.COPY, "p", "A.x") in triples
        assert (PrimitiveKind.COPY, "q", "B.x") in triples

    def test_nested_member_access(self):
        ir = lower("""
        struct In { int *v; };
        struct Out { struct In in; } o;
        int *p;
        void f(void) { p = o.in.v; }
        """)
        assert (PrimitiveKind.COPY, "p", "In.v") in plain(ir)

    def test_struct_init_list_field_based(self):
        ir = lower("int a, b; struct P { int *x; int *y; } "
                   "pt = { &a, &b };")
        triples = plain(ir)
        assert (PrimitiveKind.ADDR, "P.x", "a") in triples
        assert (PrimitiveKind.ADDR, "P.y", "b") in triples

    def test_array_init_all_hit_array_object(self):
        ir = lower("int a, b; int *arr[2] = { &a, &b };")
        triples = plain(ir)
        assert (PrimitiveKind.ADDR, "arr", "a") in triples
        assert (PrimitiveKind.ADDR, "arr", "b") in triples


class TestArrays:
    def test_index_is_index_independent(self):
        ir = lower("int *arr[4], *p; int i; void f(void) { p = arr[i]; }")
        assert (PrimitiveKind.COPY, "p", "arr") in plain(ir)

    def test_index_write(self):
        ir = lower("int *arr[4], *p; void f(void) { arr[2] = p; }")
        assert (PrimitiveKind.COPY, "arr", "p") in plain(ir)

    def test_pointer_index_is_deref(self):
        ir = lower("int **pp, *p; int i; void f(void) { p = pp[i]; }")
        assert (PrimitiveKind.LOAD, "p", "pp") in plain(ir)

    def test_array_decay(self):
        ir = lower("int arr[4], *p; void f(void) { p = arr; }")
        assert (PrimitiveKind.ADDR, "p", "arr") in plain(ir)

    def test_address_of_element(self):
        ir = lower("int arr[4], *p; void f(void) { p = &arr[1]; }")
        assert (PrimitiveKind.ADDR, "p", "arr") in plain(ir)


class TestScoping:
    def test_locals_qualified_by_function(self):
        ir = lower("void f(void) { int x; } void g(void) { int x; }",
                   filename="s.c")
        names = set(ir.objects)
        assert "s.c::f::x" in names
        assert "s.c::g::x" in names

    def test_static_global_file_qualified(self):
        ir = lower("static int x;", filename="s.c")
        assert "s.c::x" in ir.objects
        assert not ir.objects["s.c::x"].is_global

    def test_extern_stays_global(self):
        ir = lower("void f(void) { extern int shared; int *p; p = &shared; }")
        assert (PrimitiveKind.ADDR, "p", "shared") in plain(ir)
        assert "shared" in ir.objects

    def test_block_shadowing(self):
        ir = lower("""
        int *g2;
        void f(void) {
            int *p;
            { int *p; p = g2; }
        }
        """, filename="s.c")
        # The inner p is a distinct object from the outer p.
        [a] = ir.assignments
        assert a.dst == "s.c::f::p"

    def test_undeclared_identifier_becomes_global(self):
        ir = lower("void f(void) { mystery = 0; mystery2 = &mystery; }")
        assert "mystery" in ir.objects

    def test_source_lines_counted(self):
        src = "int x;\n// c\nint y;\n"
        ir = lower_translation_unit(parse_c(src), source_text=src)
        assert ir.source_lines == 2


class TestStatements:
    def test_condition_effects_lowered(self):
        ir = lower("int *p, *q; void f(void) { if (p == q) { p = q; } }")
        assert (PrimitiveKind.COPY, "p", "q") in plain(ir)

    def test_assignment_inside_condition(self):
        ir = lower("int *p, *q; void f(void) { while ((p = q)) {} }")
        assert (PrimitiveKind.COPY, "p", "q") in plain(ir)

    def test_for_clauses(self):
        ir = lower("int *p, *q; int i; void f(void) "
                   "{ for (p = q; i < 3; i++) {} }")
        assert (PrimitiveKind.COPY, "p", "q") in plain(ir)

    def test_switch_body(self):
        ir = lower("int c, *p, *q; void f(void) "
                   "{ switch (c) { case 1: p = q; break; } }")
        assert (PrimitiveKind.COPY, "p", "q") in plain(ir)

    def test_comma_expression(self):
        ir = lower("int *p, *q, *r, *s; void f(void) { p = (q = r, s); }")
        triples = plain(ir)
        assert (PrimitiveKind.COPY, "q", "r") in triples
        assert (PrimitiveKind.COPY, "p", "s") in triples


class TestValues:
    """Lowering's values compare and hash by what they hold, so equal
    ones are interchangeable wherever they are shared."""

    def test_value_equality_and_hash(self):
        a = Value(Value.REF, "x")
        assert a == Value(Value.REF, "x")
        assert hash(a) == hash(Value(Value.REF, "x"))
        assert a != Value(Value.DEREF, "x")
        assert a != Value(Value.REF, "y")
        assert Value(Value.NONE) == Value(Value.NONE, "")
        assert len({a, Value("ref", "x"), Value(Value.ADDR, "x")}) == 2

    def test_contribution_equality_and_hash(self):
        v = Value(Value.REF, "x")
        a = Contribution(v)
        assert a == Contribution(Value(Value.REF, "x"), Strength.DIRECT, "")
        assert hash(a) == hash(Contribution(Value(Value.REF, "x")))
        assert a != Contribution(v, Strength.WEAK)
        assert a != Contribution(v, op="+")
        assert {a: 1}[Contribution(Value(Value.REF, "x"))] == 1

    def test_through_builds_a_new_contribution(self):
        a = Contribution(Value(Value.REF, "x"))
        b = a.through("+", Strength.STRONG)
        assert b == Contribution(Value(Value.REF, "x"), Strength.STRONG, "+")
        assert a == Contribution(Value(Value.REF, "x"))
