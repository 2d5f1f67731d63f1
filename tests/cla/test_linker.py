"""Tests for the link phase: merging object files on disk."""

import pytest

from repro.cfront import parse_c
from repro.cla.linker import LinkError, link_object_files
from repro.cla.reader import DatabaseStore
from repro.cla.store import MemoryStore
from repro.cla.writer import write_unit
from repro.driver.cli import main
from repro.driver.incremental import Workspace
from repro.engine.pipeline import (
    CompileOptions,
    Pipeline,
    compile_source,
)
from repro.ir import lower_translation_unit


def compile_to(tmp_path, filename, src, field_based=True):
    unit = lower_translation_unit(
        parse_c(src, filename=filename), field_based=field_based
    )
    path = str(tmp_path / (filename + ".o"))
    write_unit(unit, path)
    return path


MODELS = ("field_based", "field_independent", "offset_based")


def compile_model(tmp_path, filename, src, model):
    path = str(tmp_path / f"{model}-{filename}.o")
    Pipeline(CompileOptions(struct_model=model)).compile(
        {filename: src}, {filename: path})
    return path


class TestLinking:
    def test_two_files_merge_globals(self, tmp_path):
        a = compile_to(tmp_path, "a.c",
                       "int shared; void f(void) { shared = 1; }")
        b = compile_to(tmp_path, "b.c",
                       "extern int shared; int *p;"
                       "void g(void) { p = &shared; }")
        out = str(tmp_path / "prog.cla")
        link_object_files([a, b], out)
        with DatabaseStore.open(out) as r:
            assert r.linked
            assert len(r.find_targets("shared")) == 1
            assert r.get_object("p") is not None

    def test_statics_concatenate(self, tmp_path):
        a = compile_to(tmp_path, "a.c", "int x, *p; void f(void){ p = &x; }")
        b = compile_to(tmp_path, "b.c", "int y, *q; void g(void){ q = &y; }")
        out = str(tmp_path / "prog.cla")
        link_object_files([a, b], out)
        with DatabaseStore.open(out) as r:
            statics = {str(s) for s in r.fetch_statics()}
            assert statics == {"p = &x", "q = &y"}

    def test_cross_file_blocks_merge(self, tmp_path):
        a = compile_to(tmp_path, "a.c", "int g2; int u; void f(void){ u = g2; }")
        b = compile_to(tmp_path, "b.c",
                       "extern int g2; int v; void h(void){ v = g2; }")
        out = str(tmp_path / "prog.cla")
        link_object_files([a, b], out)
        with DatabaseStore.open(out) as r:
            block = r.fetch_block("g2")
            assert {x.dst for x in block.assignments} == {"u", "v"}

    def test_file_statics_stay_distinct(self, tmp_path):
        a = compile_to(tmp_path, "a.c", "static int priv; "
                                        "void f(void){ priv = 1; }")
        b = compile_to(tmp_path, "b.c", "static int priv; "
                                        "void g(void){ priv = 2; }")
        out = str(tmp_path / "prog.cla")
        link_object_files([a, b], out)
        with DatabaseStore.open(out) as r:
            assert sorted(r.find_targets("priv")) == ["a.c::priv", "b.c::priv"]

    def test_function_record_from_defining_file(self, tmp_path):
        a = compile_to(tmp_path, "a.c", "int work(int n) { return n; }")
        b = compile_to(tmp_path, "b.c",
                       "int work(int); void f(void) { work(3); }")
        out = str(tmp_path / "prog.cla")
        link_object_files([a, b], out)
        with DatabaseStore.open(out) as r:
            record = r.fetch_block("work").function_record
            assert record is not None
            assert record.args == ["work$arg1"]

    def test_same_object_linked_twice(self, tmp_path):
        """An object file linked twice repeats one definition: its
        function record is kept once, not a conflict."""
        a = compile_to(tmp_path, "a.c", "int work(int n) { return n; }")
        out = str(tmp_path / "prog.cla")
        link_object_files([a, a], out)
        with DatabaseStore.open(out) as r:
            assert r.fetch_block("work").function_record.args == ["work$arg1"]

    def test_source_lines_sum(self, tmp_path):
        unit_a = lower_translation_unit(
            parse_c("int a;\nint b;\n", filename="a.c"),
            )
        unit_a.source_lines = 2
        path_a = str(tmp_path / "a.o")
        write_unit(unit_a, path_a)
        unit_b = lower_translation_unit(parse_c("int c;\n", filename="b.c"))
        unit_b.source_lines = 1
        path_b = str(tmp_path / "b.o")
        write_unit(unit_b, path_b)
        out = str(tmp_path / "prog.cla")
        link_object_files([path_a, path_b], out)
        with DatabaseStore.open(out) as r:
            assert r.source_lines == 3

    def test_mixed_field_models_rejected(self, tmp_path):
        a = compile_to(tmp_path, "a.c", "int x;", field_based=True)
        b = compile_to(tmp_path, "b.c", "int y;", field_based=False)
        with pytest.raises(LinkError):
            link_object_files([a, b], str(tmp_path / "prog.cla"))

    @pytest.mark.parametrize("first, second", [
        (a, b) for a in MODELS for b in MODELS if a != b
    ])
    def test_every_mixed_model_pair_names_both(self, tmp_path, first,
                                               second):
        a = compile_model(tmp_path, "a.c", "int x;", first)
        b = compile_model(tmp_path, "b.c", "int y;", second)
        with pytest.raises(LinkError) as excinfo:
            link_object_files([a, b], str(tmp_path / "prog.cla"))
        assert f"struct model {second} differs" in str(excinfo.value)
        assert f"({first})" in str(excinfo.value)

    @pytest.mark.parametrize("model", MODELS)
    def test_objects_of_one_model_link_and_keep_it(self, tmp_path, model):
        a = compile_model(tmp_path, "a.c", "int x;", model)
        b = compile_model(tmp_path, "b.c", "int y;", model)
        out = str(tmp_path / "prog.cla")
        link_object_files([a, b], out)
        for path in (a, b, out):
            with DatabaseStore.open(path) as r:
                assert r.struct_model == model

    def test_in_memory_link_rejects_mixed_models(self):
        units = [
            lower_translation_unit(parse_c("int x;", filename="a.c")),
            lower_translation_unit(parse_c("int y;", filename="b.c"),
                                   struct_model="offset_based"),
        ]
        with pytest.raises(LinkError, match="offset_based differs"):
            MemoryStore(units)

    def test_no_inputs_rejected(self, tmp_path):
        with pytest.raises(LinkError):
            link_object_files([], str(tmp_path / "prog.cla"))

    def test_link_units_shortcut(self, tmp_path):
        units = [
            lower_translation_unit(parse_c("int x, *p; "
                                           "void f(void){ p = &x; }",
                                           filename="a.c")),
        ]
        out = str(tmp_path / "prog.cla")
        Pipeline().write_executable(MemoryStore(units), out)
        store = DatabaseStore.open(out)
        assert store.stats.in_file == 1
        store.close()

    def test_linked_database_analyzes_identically(self, tmp_path):
        """End-to-end: disk pipeline == in-memory pipeline."""
        from repro.solvers import PreTransitiveSolver

        src_a = "int x, *p; void f(void) { p = &x; }"
        src_b = ("extern int *p; int **pp, *q;"
                 "void g(void) { pp = &p; q = *pp; }")
        a = compile_to(tmp_path, "a.c", src_a)
        b = compile_to(tmp_path, "b.c", src_b)
        out = str(tmp_path / "prog.cla")
        link_object_files([a, b], out)

        disk = DatabaseStore.open(out)
        disk_result = PreTransitiveSolver(disk).solve()

        units = [
            lower_translation_unit(parse_c(src_a, filename="a.c")),
            lower_translation_unit(parse_c(src_b, filename="b.c")),
        ]
        mem_result = PreTransitiveSolver(MemoryStore(units)).solve()

        for name in set(disk_result.pts) | set(mem_result.pts):
            assert disk_result.points_to(name) == mem_result.points_to(name)
        assert disk_result.points_to("q") == {"x"}
        assert disk_result.points_to("pp") == {"p"}
        disk.close()


def link_objects_route(tmp_path, capsys, sources, headers):
    """Each source compiled to its own object file, then linked."""
    options = CompileOptions(virtual_files=dict(headers))
    paths = []
    for name, text in sources.items():
        path = str(tmp_path / (name + ".o"))
        write_unit(compile_source(text, name, options), path)
        paths.append(path)
    out = str(tmp_path / "prog.cla")
    link_object_files(paths, out)
    with DatabaseStore.open(out) as r:
        return r.fetch_block("work").function_record


def session_route(tmp_path, capsys, sources, headers):
    """The library's in-memory link: a workspace's held units, merged in
    a store that is never written."""
    session = Workspace()
    for name, text in headers.items():
        session.add_header(name, text)
    for name, text in sources.items():
        session.add_source(name, text)
    return session.store().load_block("work").function_record


#: What the CLI route returns on a clean link: the command keeps no
#: database, so it has no function record to hand back.
NO_DATABASE = object()


def cli_route(tmp_path, capsys, sources, headers):
    """``repro-cla analyze a.c b.c``: a link error is one line, exit 2."""
    for name, text in {**headers, **sources}.items():
        (tmp_path / name).write_text(text)
    rc = main(["analyze", *(str(tmp_path / name) for name in sources)])
    err = capsys.readouterr().err
    if rc == 2:
        assert err.startswith("error: duplicate definition of function")
        assert "Traceback" not in err
        raise LinkError(err)
    assert rc == 0, err
    return NO_DATABASE


def workspace_route(tmp_path, capsys, sources, headers):
    """A workspace build through its object-file cache to the written
    database."""
    with Workspace(cache_dir=str(tmp_path / "ws")) as ws:
        for name, text in headers.items():
            ws.add_header(name, text)
        for name, text in sources.items():
            ws.add_source(name, text)
        with DatabaseStore.open(ws.build(jobs=1)) as r:
            return r.fetch_block("work").function_record


LINK_ROUTES = {
    "objects": link_objects_route,
    "session": session_route,
    "cli": cli_route,
    "workspace": workspace_route,
}


class TestDuplicateFunctionRecords:
    """Every route links through one store, so every route applies the
    same function-record rule."""

    @pytest.fixture(params=list(LINK_ROUTES))
    def link(self, request, tmp_path, capsys):
        route = LINK_ROUTES[request.param]
        return lambda sources, headers=None: route(
            tmp_path, capsys, sources, headers or {})

    def test_conflicting_definitions_rejected(self, link):
        """Two units each defining ``work`` are a link error: letting
        either record win would bind every call to it silently."""
        with pytest.raises(LinkError) as exc:
            link({"a.c": "int work(int n) { return n; }",
                  "b.c": "int work(int n, int m) { return m; }"})
        message = str(exc.value)
        assert "work" in message
        assert "a.c" in message and "b.c" in message

    def test_same_definition_twice_keeps_first(self, link):
        """One definition reaching the link twice (here through a shared
        header) is not a conflict: the records are identical, so the
        first is kept."""
        record = link(
            {"a.c": '#include "work.h"\nint *pa;',
             "b.c": '#include "work.h"\nint *pb;'},
            {"work.h": "int work(int n) { return n; }\n"},
        )
        if record is not NO_DATABASE:
            assert record is not None
            assert record.args == ["work$arg1"]

    def test_declaration_plus_definition_still_links(self, link):
        """A declaration-only unit carries no function record; linking it
        with the defining unit is untouched by the conflict check."""
        record = link({  # definition last: must not "win" by order
            "a.c": "int work(int); void f(void) { work(3); }",
            "b.c": "int work(int n) { return n; }",
        })
        if record is not NO_DATABASE:
            assert record is not None
            assert "b.c" in record.location.brief()


class TestLinkUnitsSourceLines:
    def test_link_units_sums_source_lines(self, tmp_path):
        """Regression pin: writing linked units straight to a database
        reports the same source-line total as the object-file route."""
        unit_a = lower_translation_unit(
            parse_c("int a;\nint b;\n", filename="a.c"))
        unit_a.source_lines = 2
        unit_b = lower_translation_unit(parse_c("int c;\n", filename="b.c"))
        unit_b.source_lines = 3
        out = str(tmp_path / "prog.cla")
        Pipeline().write_executable(MemoryStore([unit_a, unit_b]), out)
        with DatabaseStore.open(out) as r:
            assert r.source_lines == 5
