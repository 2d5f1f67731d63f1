"""Tests for the constraint store and block organisation (Figure 4)."""

import dataclasses

from repro.cfront import parse_c
from repro.cla.store import MemoryStore, simple_name_of, trigger_object
from repro.ir import PrimitiveAssignment, PrimitiveKind, lower_translation_unit


def store_for(src, filename="a.c", **kwargs):
    return MemoryStore(lower_translation_unit(parse_c(src, filename=filename),
                                              **kwargs))


FIGURE4 = """
int x, y, z, *p, *q;
void main1(void) { x = y; x = z; *p = z; p = q; q = &y; x = *p; }
"""


class TestTriggerObject:
    def a(self, kind, dst, src):
        return PrimitiveAssignment(kind=kind, dst=dst, src=src)

    def test_copy_triggered_by_source(self):
        assert trigger_object(self.a(PrimitiveKind.COPY, "x", "y")) == "y"

    def test_addr_is_static(self):
        assert trigger_object(self.a(PrimitiveKind.ADDR, "x", "y")) is None

    def test_store_triggered_by_value(self):
        assert trigger_object(self.a(PrimitiveKind.STORE, "p", "z")) == "z"

    def test_load_triggered_by_pointer(self):
        assert trigger_object(self.a(PrimitiveKind.LOAD, "x", "p")) == "p"

    def test_store_load_triggered_by_source_pointer(self):
        assert trigger_object(
            self.a(PrimitiveKind.STORE_LOAD, "p", "q")
        ) == "q"


class TestFigure4Layout:
    """The object-file sketch of Figure 4, block by block."""

    def test_static_section(self):
        store = store_for(FIGURE4)
        assert [str(a) for a in store.static_assignments()] == ["q = &y"]

    def test_block_z(self):
        store = store_for(FIGURE4)
        block = store.load_block("z")
        assert [str(a) for a in block.assignments] == ["x = z", "*p = z"]

    def test_block_p(self):
        store = store_for(FIGURE4)
        block = store.load_block("p")
        assert [str(a) for a in block.assignments] == ["x = *p"]

    def test_block_q(self):
        store = store_for(FIGURE4)
        block = store.load_block("q")
        assert [str(a) for a in block.assignments] == ["p = q"]

    def test_block_y(self):
        store = store_for(FIGURE4)
        block = store.load_block("y")
        assert [str(a) for a in block.assignments] == ["x = y"]

    def test_x_has_no_block(self):
        store = store_for(FIGURE4)
        assert store.load_block("x") is None


class TestLoadAccounting:
    def test_in_file_total(self):
        store = store_for(FIGURE4)
        assert store.stats.in_file == 6

    def test_nothing_loaded_initially(self):
        store = store_for(FIGURE4)
        assert store.stats.loaded == 0

    def test_statics_counted_once(self):
        store = store_for(FIGURE4)
        store.static_assignments()
        store.static_assignments()
        assert store.stats.loaded == 1

    def test_block_counted_once(self):
        store = store_for(FIGURE4)
        store.load_block("z")
        store.load_block("z")
        assert store.stats.loaded == 2

    def test_discard_resets_in_core(self):
        store = store_for(FIGURE4)
        store.static_assignments()
        store.load_block("z")
        store.discard(1)
        assert store.stats.in_core == 1
        assert store.stats.loaded == 3  # loading history is unaffected


class TestTargets:
    def test_find_global(self):
        store = store_for(FIGURE4)
        assert store.find_targets("x") == ["x"]

    def test_find_local_by_simple_name(self):
        store = store_for("void f(void) { int local; local = 1; }",
                          filename="b.c")
        assert store.find_targets("local") == ["b.c::f::local"]

    def test_find_field_by_qualified_name(self):
        store = store_for(
            "struct S { int v; } s; void f(void) { s.v = 1; }"
        )
        assert store.find_targets("S.v") == ["S.v"]

    def test_same_name_in_two_functions(self):
        store = store_for("""
        void f(void) { int tmp; tmp = 1; }
        void g(void) { int tmp; tmp = 2; }
        """, filename="c.c")
        assert sorted(store.find_targets("tmp")) == [
            "c.c::f::tmp", "c.c::g::tmp",
        ]

    def test_missing_target(self):
        store = store_for(FIGURE4)
        assert store.find_targets("nonexistent") == []


class TestSimpleNameOf:
    def test_plain(self):
        assert simple_name_of("x") == "x"

    def test_local(self):
        assert simple_name_of("a.c::f::x") == "x"

    def test_static(self):
        assert simple_name_of("a.c::x") == "x"

    def test_field_keeps_qualification(self):
        assert simple_name_of("S.x") == "S.x"


class TestMultiUnitLinking:
    def test_globals_merge_across_units(self):
        unit1 = lower_translation_unit(
            parse_c("int shared; void f(void) { shared = 1; }",
                    filename="a.c"))
        unit2 = lower_translation_unit(
            parse_c("extern int shared; int *p; "
                    "void g(void) { p = &shared; }", filename="b.c"))
        store = MemoryStore([unit1, unit2])
        assert len(store.find_targets("shared")) == 1

    def test_blocks_concatenate(self):
        unit1 = lower_translation_unit(
            parse_c("int g2; int a; void f(void) { a = g2; }",
                    filename="a.c"))
        unit2 = lower_translation_unit(
            parse_c("extern int g2; int b; void h(void) { b = g2; }",
                    filename="b.c"))
        store = MemoryStore([unit1, unit2])
        block = store.load_block("g2")
        dsts = {a.dst for a in block.assignments}
        assert dsts == {"a", "b"}

    def test_function_records_survive_linking(self):
        unit1 = lower_translation_unit(
            parse_c("int callee(int v) { return v; }", filename="a.c"))
        unit2 = lower_translation_unit(
            parse_c("int callee(int); void f(void) { callee(1); }",
                    filename="b.c"))
        store = MemoryStore([unit1, unit2])
        block = store.load_block("callee")
        assert block.function_record is not None
        assert block.function_record.args == ["callee$arg1"]


def _fields(obj):
    """Every field of a program object: ``ProgramObject.__eq__`` compares
    names only."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def _unit(filename, src):
    return lower_translation_unit(parse_c(src, filename=filename))


class TestLinkLeavesInputsAlone:
    """A link keeps the richest metadata of a global seen in several
    units without writing it into any of them, so the same units can be
    linked again after one of them changes."""

    A_C = "int *h(void);\nint *(*fp)(void) = h;\n"
    B_C = "extern int *(*fp)(void);\nint *r;\nvoid g(void) { r = fp(); }\n"
    B_EDITED = "extern int *(*fp)(void);\nint *r;\nvoid g(void) { }\n"

    def test_inputs_unchanged_by_a_link(self):
        a, b = _unit("a.c", self.A_C), _unit("b.c", self.B_C)
        before = {unit.filename: {name: _fields(obj)
                                  for name, obj in unit.objects.items()}
                  for unit in (a, b)}
        store = MemoryStore([a, b])
        assert store.objects["fp"].is_funcptr
        for unit in (a, b):
            for name, obj in unit.objects.items():
                assert _fields(obj) == before[unit.filename][name], name

    def test_relink_after_an_edit_matches_a_fresh_link(self):
        a = _unit("a.c", self.A_C)
        MemoryStore([a, _unit("b.c", self.B_C)])
        relinked = MemoryStore([a, _unit("b.c", self.B_EDITED)])
        fresh = MemoryStore([_unit("a.c", self.A_C),
                             _unit("b.c", self.B_EDITED)])
        assert not fresh.objects["fp"].is_funcptr
        assert relinked.objects.keys() == fresh.objects.keys()
        for name in fresh.objects:
            assert _fields(relinked.objects[name]) == \
                _fields(fresh.objects[name]), name

    def test_block_sees_the_merged_object(self):
        """A block is named by its object; the object the store answers
        for that name is the merged one (``fp`` is a function pointer in
        b.c only)."""
        store = MemoryStore([_unit("a.c", self.A_C), _unit("b.c", self.B_C)])
        assert "fp" in store.blocks()
        for name in store.blocks():
            assert store.get_object(name) is store.objects[name], name
        assert store.get_object("fp").is_funcptr
