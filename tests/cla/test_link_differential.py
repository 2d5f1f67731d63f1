"""The block-wise link against the row-by-row link.

A workspace holds each unit grouped into blocks once (a
:class:`~repro.cla.store.UnitStore`) and links its held units by merging
those blocks.  That link must build the store the row-by-row link of the
same units builds (``MemoryStore(units)`` over bare units), field for
field and in dict order: objects, statics, every block's rows and
records, call sites, the in-file count, source lines and struct model,
and the same :class:`~repro.cla.store.LinkError`.  Object equality is by
name alone, so every comparison here goes through :func:`snapshot`.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cfront.source import Location
from repro.cla.store import LinkError, MemoryStore, UnitStore
from repro.driver.incremental import Workspace
from repro.engine.pipeline import CompileOptions, compile_source
from repro.ir.lower import UnitIR
from repro.ir.objects import ObjectKind, ProgramObject
from repro.ir.primitives import (
    CallSiteRecord,
    FunctionRecord,
    IndirectCallRecord,
    PrimitiveAssignment,
    PrimitiveKind,
)
from repro.serve import ServeSession
from repro.synth import generate
from repro.synth.profiles import PROFILES


def _values(value, cls) -> tuple | None:
    """Every field of a dataclass value, read through ``getattr`` so a
    row or object decoded from a file (a subclass that builds its
    location on first read) compares by content."""
    if value is None:
        return None
    return tuple(getattr(value, f.name) for f in dataclasses.fields(cls))


def snapshot(store: MemoryStore) -> tuple:
    """The whole store as plain values, dict orders included."""
    def rows(assignments):
        return [_values(a, PrimitiveAssignment) for a in assignments]

    return (
        store.struct_model, store.source_lines, store.stats.in_file,
        [(name, _values(obj, ProgramObject))
         for name, obj in store.objects.items()],
        rows(store.fetch_statics()),
        [(name, rows(block.assignments),
          _values(block.function_record, FunctionRecord),
          _values(block.indirect_record, IndirectCallRecord))
         for name, block in store.blocks().items()],
        [_values(site, CallSiteRecord) for site in store.call_sites()],
    )


def assert_same_store(linked: MemoryStore, reference: MemoryStore) -> None:
    mine, theirs = snapshot(linked), snapshot(reference)
    labels = ("struct model", "source lines", "in-file count", "objects",
              "statics", "blocks", "call sites")
    for label, a, b in zip(labels, mine, theirs):
        assert a == b, f"{label} differ"


def link_error(units) -> str | None:
    try:
        MemoryStore(units)
    except LinkError as exc:
        return str(exc)
    return None


@pytest.fixture(scope="module", params=[True, False],
                ids=["field_based", "field_independent"])
def field_based(request):
    return request.param


@pytest.fixture(scope="module", params=sorted(PROFILES))
def program(request):
    return generate(request.param, scale=0.01, seed=1)


class TestSynthProfiles:
    def test_compiled_units(self, program, field_based):
        workspace = program.project(field_based=field_based)
        stores = workspace.unit_stores()
        units = workspace.units()
        held = [snapshot(store) for store in stores]
        linked = MemoryStore(stores)
        assert_same_store(linked, MemoryStore(units))
        # A link copies what it takes: linking again builds the same
        # store, and no held store changed.
        assert_same_store(MemoryStore(stores), linked)
        assert [snapshot(store) for store in stores] == held
        assert_same_store(workspace.store(), linked)

    def test_read_back_units(self, program, field_based, tmp_path):
        options = CompileOptions(field_based=field_based)
        for restart in (False, True):
            workspace = Workspace(cache_dir=str(tmp_path), options=options)
            workspace.add_header(program.header_name, program.header)
            for name, text in program.files.items():
                workspace.add_source(name, text)
            stores = workspace.unit_stores()
            # The second workspace reads every unit back from the cache
            # the first one wrote.
            assert workspace.stats.read == (len(stores) if restart else 0)
            assert_same_store(MemoryStore(stores),
                              MemoryStore(workspace.units()))
            workspace.close()


def _unit(filename: str, functions: dict[str, int], rows=(),
          struct_model: str = "field_based") -> UnitIR:
    """A hand-made unit defining each function of ``functions`` at the
    given line."""
    unit = UnitIR(filename=filename, struct_model=struct_model)
    for name, line in functions.items():
        location = Location(filename, line)
        unit.objects[name] = ProgramObject(
            name=name, kind=ObjectKind.FUNCTION, location=location)
        unit.function_records[name] = FunctionRecord(
            function=name, args=[], ret=f"{name}$ret", location=location)
    unit.assignments.extend(
        PrimitiveAssignment(kind, dst, src) for kind, dst, src in rows)
    return unit


class TestLinkErrors:
    def test_mixed_struct_models(self):
        units = [
            compile_source("int x, *p; void f(void) { p = &x; }", "a.c"),
            compile_source("int *q; void g(void) { q = 0; }", "b.c",
                           CompileOptions(struct_model="offset_based")),
        ]
        message = link_error(units)
        assert message == ("b.c: struct model offset_based differs from "
                           "earlier inputs (field_based)")
        assert link_error([UnitStore(u) for u in units]) == message

    def test_first_conflict_in_the_units_record_order(self):
        """A row makes ``g``'s block before ``f``'s, so the grouped
        unit's blocks list ``g`` first; the unit's records list ``f``
        first, and so does the error of either link."""
        a = _unit("a.c", {"f": 1, "g": 2})
        b = _unit("b.c", {"f": 3, "g": 4},
                  rows=[(PrimitiveKind.COPY, "x", "g")])
        assert list(UnitStore(b).blocks()) == ["g", "f"]
        message = link_error([a, b])
        assert message == ("duplicate definition of function 'f': "
                           "<a.c:1> and <b.c:3>")
        assert link_error([UnitStore(a), UnitStore(b)]) == message
        assert link_error([a, UnitStore(b)]) == message

    def test_compiled_duplicate_definitions(self):
        units = [
            compile_source("int f(void) { return 0; }\n"
                           "int g(void) { return 0; }\n", "a.c"),
            compile_source("int g(void) { return 1; }\n"
                           "int f(void) { return 1; }\n", "b.c"),
        ]
        message = link_error(units)
        assert message is not None and "'g'" in message
        assert link_error([UnitStore(u) for u in units]) == message


HEADER = "extern int shared; extern int *gp;\n"
SOURCE_A = ('#include "defs.h"\nint shared; int *gp;\n'
            "void init(void) { gp = &shared; }\n")
SOURCE_B = ('#include "defs.h"\nint *mine;\n'
            "void use(void) { mine = gp; }\n")
SOURCE_B_GROWN = SOURCE_B + "int *extra; void more(void) { extra = mine; }\n"
SOURCE_B_CLASH = SOURCE_B + "void init(void) { mine = 0; }\n"
SOURCE_C = ('#include "defs.h"\nint *late;\n'
            "void c(void) { late = gp; }\n")


class TestServeEditScript:
    """Through a daemon's edits, the served store is always the one a
    fresh workspace links over the same sources, and no link writes
    into a store the workspace holds."""

    def test_edit_script(self, tmp_path):
        workspace = Workspace(cache_dir=str(tmp_path / "cache"))
        workspace.add_header("defs.h", HEADER)
        workspace.add_source("a.c", SOURCE_A)
        workspace.add_source("b.c", SOURCE_B)
        seen: dict[int, tuple[UnitStore, tuple]] = {}

        def check_held():
            for store in [*workspace._held.values(),
                          *workspace._retained.values()]:
                if id(store) not in seen:
                    seen[id(store)] = (store, snapshot(store))

        def check_served():
            fresh = Workspace()
            for name, text in workspace._headers.items():
                fresh.add_header(name, text)
            for name in workspace.sources():
                fresh.add_source(name, workspace._sources[name])
            assert_same_store(session._store, fresh.store())

        def update(file, text, kind="source"):
            response = session.request(
                "update", {"file": file, "text": text, "kind": kind})
            check_held()
            return response

        with ServeSession(workspace=workspace) as session:
            check_held()
            assert update("b.c", SOURCE_B_GROWN)["result"]["compiled"] == 1
            check_served()
            undo = update("b.c", SOURCE_B)
            assert undo["result"]["compiled"] == 0
            assert workspace.stats.read == 0
            check_served()
            header = update("defs.h", HEADER + "extern int *hp;\n", "header")
            assert header["result"]["compiled"] == 2
            check_served()
            assert update("c.c", SOURCE_C)["result"]["compiled"] == 1
            check_served()
            workspace.remove_source("c.c")
            assert session.request("reload")["ok"]
            check_held()
            check_served()
            served = session._store
            clash = update("b.c", SOURCE_B_CLASH)
            assert not clash["ok"] and "duplicate definition" in clash["error"]
            assert session._store is served
            fixed = update("b.c", SOURCE_B_GROWN)
            assert fixed["ok"]
            check_served()
            answer = session.request("points-to", {"name": "extra"})
            assert answer["result"]["points_to"] == {"extra": ["shared"]}
        assert len(seen) >= 6
        for store, before in seen.values():
            assert snapshot(store) == before
        workspace.close()
