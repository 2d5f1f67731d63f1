"""Tests for the incremental workspace (§4's interactive-tool motivation)."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cla.cache import BlockCache
from repro.driver.incremental import Workspace
from repro.engine.pipeline import BuildError, CompileOptions, Pipeline
from repro.solvers import SOLVERS
from repro.synth import generate
from repro.synth.generator import HEADER_NAME


@pytest.fixture
def workspace(tmp_path):
    ws = Workspace(cache_dir=str(tmp_path / "cache"))
    ws.add_header("defs.h", "extern int shared; extern int *gp;")
    ws.add_source("a.c", '#include "defs.h"\nint shared; int *gp;'
                         "void init(void) { gp = &shared; }")
    ws.add_source("b.c", '#include "defs.h"\nint *mine;'
                         "void use(void) { mine = gp; }")
    ws.add_source("c.c", "int unrelated;")
    yield ws
    ws.close()


class TestCaching:
    def test_first_build_compiles_everything(self, workspace):
        workspace.build()
        assert workspace.stats.compiled == 3
        assert workspace.stats.reused == 0
        assert workspace.stats.linked

    def test_second_build_reuses_everything(self, workspace):
        workspace.build()
        workspace.build()
        assert workspace.stats.compiled == 0
        assert workspace.stats.reused == 3
        assert not workspace.stats.linked

    def test_editing_one_file_recompiles_one(self, workspace):
        workspace.build()
        workspace.update_source(
            "b.c", '#include "defs.h"\nint *mine, *extra;'
                   "void use(void) { mine = gp; extra = mine; }"
        )
        workspace.build()
        assert workspace.stats.compiled == 1
        assert workspace.stats.reused == 2
        assert workspace.stats.linked

    def test_header_edit_recompiles_all(self, workspace):
        workspace.build()
        workspace.update_header("defs.h",
                                "extern int shared; extern int *gp;"
                                "extern int more;")
        workspace.build()
        assert workspace.stats.compiled == 3

    def test_undone_edit_hits_cache(self, workspace):
        original = '#include "defs.h"\nint *mine;' \
                   "void use(void) { mine = gp; }"
        workspace.build()
        workspace.update_source("b.c", original + " /* tweak */")
        workspace.build()
        workspace.update_source("b.c", original)
        workspace.build()
        # The workspace kept the unit the tweak displaced: no compile,
        # and no object file read back.
        assert workspace.stats.compiled == 0
        assert workspace.stats.reused == 3
        assert workspace.stats.read == 0

    def test_option_change_invalidates(self, tmp_path):
        ws = Workspace(cache_dir=str(tmp_path / "c2"))
        ws.add_source("a.c", "struct S { int *f; } s; int *p;"
                             "void f(void) { p = s.f; }")
        ws.build()
        ws.options.struct_model = "field_independent"
        ws.build()
        assert ws.stats.compiled == 1
        ws.close()

    def test_remove_source(self, workspace):
        workspace.build()
        workspace.remove_source("c.c")
        workspace.build()
        assert workspace.stats.reused == 2
        assert workspace.stats.linked

    def test_empty_workspace_rejected(self, tmp_path):
        ws = Workspace(cache_dir=str(tmp_path / "c3"))
        with pytest.raises(ValueError):
            ws.build()
        ws.close()

    def test_update_unknown_source(self, workspace):
        with pytest.raises(KeyError):
            workspace.update_source("ghost.c", "int x;")

    def test_remove_source_refuses_a_header(self, workspace):
        """Removing a header as a source would drop its text while the
        workspace still keys it, so every unit including it would fail
        to build."""
        with pytest.raises(KeyError, match="unknown source 'defs.h'"):
            workspace.remove_source("defs.h")
        with pytest.raises(KeyError):
            workspace.remove_source("ghost.c")
        workspace.build()
        assert workspace.points_to().points_to("mine") == {"shared"}


#: One change to a workspace: a source or header added, updated or
#: removed, or a compile option changed in place.
key_edits = st.one_of(
    st.tuples(st.just("source"), st.sampled_from(["a.c", "b.c", "c.c"]),
              st.sampled_from(["int a;", "int b;", ""])),
    st.tuples(st.just("remove source"), st.sampled_from(["a.c", "b.c"])),
    st.tuples(st.just("header"), st.sampled_from(["x.h", "y.h"]),
              st.sampled_from(["#define X 1", "#define X 2"])),
    st.tuples(st.just("remove header"), st.sampled_from(["x.h", "y.h"])),
    st.tuples(st.just("include dir"), st.sampled_from(["inc", "lib"])),
    st.tuples(st.just("predefine"), st.sampled_from(["N", "M"]),
              st.sampled_from(["1", "2"])),
    st.tuples(st.just("option"),
              st.sampled_from(["field_based", "tolerant", "track_strings"]),
              st.booleans()),
)


def apply_key_edit(ws: Workspace, edit: tuple) -> None:
    kind, name, *value = edit
    if kind == "source":
        ws.add_source(name, value[0])
    elif kind == "header":
        ws.add_header(name, value[0])
    elif kind == "remove source" and name in ws._sources:
        ws.remove_source(name)
    elif kind == "remove header" and name in ws._headers:
        ws.remove_header(name)
    elif kind == "include dir":
        ws.options.include_dirs.append(name)
    elif kind == "predefine":
        ws.options.predefined[name] = value[0]
    elif kind == "option":
        setattr(ws.options, name, value[0])


def fresh_keys(ws: Workspace) -> dict[str, str]:
    """The content keys of ``ws``'s sources, computed from scratch."""
    fresh = Workspace(options=ws.options)
    for name, text in ws._headers.items():
        fresh.add_header(name, text)
    for name, text in ws._sources.items():
        fresh.add_source(name, text)
    return fresh._content_keys()


class TestContentKeyMemo:
    """A key is taken again only when its source, a header or an option
    changed; after any sequence of changes every key equals one computed
    from scratch."""

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(key_edits, st.booleans()), max_size=14))
    def test_keys_equal_a_fresh_computation(self, edits):
        ws = Workspace()
        for edit, look in edits:
            apply_key_edit(ws, edit)
            if look:
                assert ws._content_keys() == fresh_keys(ws), edit
        assert ws._content_keys() == fresh_keys(ws)

    def test_remove_header(self, workspace):
        workspace.add_header("spare.h", "int spare;")
        before = workspace._content_keys()
        workspace.remove_header("spare.h")
        assert "spare.h" not in workspace.options.virtual_files
        assert workspace._content_keys() != before
        with pytest.raises(KeyError, match="unknown header 'a.c'"):
            workspace.remove_header("a.c")


class TestHeldStores:
    """``held_stores`` names the held units a build would use, and
    compiles and reads nothing to say so."""

    def test_held_units_only(self, workspace):
        assert workspace.held_stores() is None  # nothing built yet
        stores = workspace.unit_stores()
        assert all(a is b for a, b in zip(workspace.held_stores(), stores))
        original = workspace._sources["b.c"]
        workspace.update_source("b.c", original + " int tweak;")
        assert workspace.held_stores() is None
        workspace.unit_stores()
        assert workspace.stats.compiled == 1
        workspace.update_source("b.c", original)
        # The undo's units: the ones the tweak displaced.
        again = workspace.held_stores()
        assert all(a is b for a, b in zip(again, stores))
        assert len(again) == len(stores)
        assert all(a is b for a, b in zip(workspace.unit_stores(), stores))
        assert workspace.stats.compiled == workspace.stats.read == 0

    def test_a_changed_include_is_not_held(self, tmp_path):
        (tmp_path / "foo.h").write_text("#define TARGET x\n")
        path = tmp_path / "a.c"
        path.write_text('#include "foo.h"\nint x, y, *p;'
                        " void f(void) { p = &TARGET; }\n")
        ws = Workspace()
        ws.add_file(str(path))
        ws.unit_stores()
        assert ws.held_stores() is not None
        (tmp_path / "foo.h").write_text("#define TARGET y\n")
        assert ws.held_stores() is None
        assert ws.points_to().points_to("p") == {"y"}
        assert ws.stats.compiled == 1

    def test_the_next_build_uses_the_pass(self, workspace, monkeypatch):
        workspace.unit_stores()
        workspace.held_stores()
        passes = []
        plan = Workspace._plan

        def counted(self, keys):
            passes.append(keys)
            return plan(self, keys)
        monkeypatch.setattr(Workspace, "_plan", counted)
        workspace.unit_stores()
        assert passes == []
        workspace.held_stores()
        workspace.update_source("b.c", "int changed;")
        workspace.unit_stores()
        assert len(passes) == 2  # the edit made the held pass stale


class TestIncludeRecords:
    """A unit is reused only while every file its preprocessing read
    still resolves to the same text, whether the workspace holds it or
    reads it back from the cache."""

    POINTER = "int x, y, *p; void f(void) { p = &TARGET; }\n"

    def _project(self, tmp_path, header="#define TARGET x\n"):
        (tmp_path / "foo.h").write_text(header)
        path = tmp_path / "a.c"
        path.write_text('#include "foo.h"\n' + self.POINTER)
        ws = Workspace(cache_dir=str(tmp_path / "cache"))
        ws.add_file(str(path))
        return ws

    def test_disk_header_edit_across_restart(self, tmp_path):
        ws = self._project(tmp_path)
        assert ws.points_to().points_to("p") == {"x"}
        ws.close()
        (tmp_path / "foo.h").write_text("#define TARGET y\n")
        again = self._project(tmp_path, "#define TARGET y\n")
        assert again.points_to().points_to("p") == {"y"}
        assert (again.stats.compiled, again.stats.read) == (1, 0)
        again.close()

    def test_disk_header_edit_in_one_workspace(self, tmp_path):
        ws = self._project(tmp_path)
        ws.build()
        (tmp_path / "foo.h").write_text("#define TARGET y\n")
        assert ws.points_to().points_to("p") == {"y"}
        assert ws.stats.compiled == 1
        ws.close()

    def test_unchanged_disk_header_reads_back(self, tmp_path):
        self._project(tmp_path).build()
        again = self._project(tmp_path)
        again.build()
        assert (again.stats.compiled, again.stats.read) == (0, 1)
        again.build()
        assert again.stats.reused == 1 and not again.stats.linked
        again.close()

    def test_disk_header_edit_before_an_undo(self, tmp_path):
        """The unit an undo returns to is checked like a held one: its
        header changed on disk, so it compiles again."""
        ws = self._project(tmp_path)
        path = ws.sources()[0]
        original = ws._sources[path]
        ws.build()
        ws.update_source(path, original + "int *q;\n")
        ws.build()
        (tmp_path / "foo.h").write_text("#define TARGET y\n")
        ws.update_source(path, original)
        assert ws.points_to().points_to("p") == {"y"}
        assert (ws.stats.compiled, ws.stats.read) == (1, 0)
        ws.close()

    def test_included_source_update(self, tmp_path):
        ws = Workspace(cache_dir=str(tmp_path / "cache"))
        ws.add_source("impl.c", "#define TARGET x\n")
        ws.add_source("a.c", '#include "impl.c"\n' + self.POINTER)
        assert ws.points_to().points_to("p") == {"x"}
        ws.update_source("impl.c", "#define TARGET y\n")
        assert ws.points_to().points_to("p") == {"y"}
        assert ws.stats.compiled == 2
        ws.close()

    def test_parallel_build_records_includes(self, tmp_path):
        (tmp_path / "foo.h").write_text("#define TARGET x\n")
        ws = Workspace(cache_dir=str(tmp_path / "cache"), jobs=2)
        sources = {
            "a.c": self.POINTER,
            "b.c": "extern int x, y; int *bp; void g(void) { bp = &TARGET; }",
        }
        for name, text in sources.items():
            path = tmp_path / name
            path.write_text('#include "foo.h"\n' + text)
            ws.add_file(str(path))
        ws.build()
        (tmp_path / "foo.h").write_text("#define TARGET y\n")
        assert ws.points_to().points_to("bp") == {"y"}
        assert ws.stats.compiled == 2
        ws.close()

    def test_object_without_its_record_is_recompiled(self, tmp_path):
        ws = self._project(tmp_path)
        ws.build()
        key = ws._content_keys()[str(tmp_path / "a.c")]
        record = os.path.join(ws.cache_dir, key + ".deps")
        assert os.path.exists(record)
        os.unlink(record)
        again = self._project(tmp_path)
        again.build()
        assert again.stats.compiled == 1
        assert os.path.exists(record)
        ws.close()
        again.close()

    @pytest.mark.parametrize("record", [
        '[[1, false, 2, "x", "y"]]', '[["foo.h"]]', "[3]", "not json",
    ])
    def test_mangled_record_is_recompiled(self, tmp_path, record):
        ws = self._project(tmp_path)
        ws.build()
        key = ws._content_keys()[str(tmp_path / "a.c")]
        with open(os.path.join(ws.cache_dir, key + ".deps"), "w") as f:
            f.write(record)
        again = self._project(tmp_path)
        assert again.points_to().points_to("p") == {"x"}
        assert again.stats.compiled == 1
        ws.close()
        again.close()

    def test_include_dirs_are_part_of_the_key(self, tmp_path):
        ws = Workspace(cache_dir=str(tmp_path / "cache"))
        ws.add_source("a.c", "int x;")
        before = ws._content_keys()
        ws.options.include_dirs.append(str(tmp_path))
        assert ws._content_keys() != before
        ws.close()

    def test_a_name_is_a_source_or_a_header(self, workspace):
        with pytest.raises(ValueError, match="already a header"):
            workspace.add_source("defs.h", "int x;")
        with pytest.raises(ValueError, match="already a source"):
            workspace.add_header("a.c", "int x;")


class TestOptionsAreCopied:
    """A workspace compiles with its own copy of the options it is given:
    its files, its include path and its include cache stay its own."""

    def test_workspaces_sharing_options_do_not_see_each_others_files(self):
        options = CompileOptions()
        first, second = Workspace(options=options), Workspace(options=options)
        first.add_source("a.c", "int x, *p; void f(void) { p = &x; }\n")
        second.add_source("b.c", '#include "a.c"\n'
                                 "int *q; void g(void) { q = p; }\n")
        assert first.points_to().points_to("p") == {"x"}
        with pytest.raises(BuildError, match="include file not found: a.c"):
            second.points_to()
        assert options.virtual_files == {}

    def test_from_directory_leaves_the_callers_include_path(self, tmp_path):
        (tmp_path / "a.c").write_text("int x, *p; void f(void) { p = &x; }")
        options = CompileOptions(include_dirs=["elsewhere"])
        project = Workspace.from_directory(str(tmp_path), options=options)
        assert project.points_to().points_to("p") == {"x"}
        assert project.options.include_dirs == ["elsewhere", str(tmp_path)]
        assert options.include_dirs == ["elsewhere"]

    def test_no_shared_include_cache(self):
        options = CompileOptions()
        cache = options.resolver()
        first, second = Workspace(options=options), Workspace(options=options)
        resolvers = {id(cache), id(first.options.resolver()),
                     id(second.options.resolver())}
        assert len(resolvers) == 3


class TestCorruptCache:
    """A killed process (or anything else) leaving a truncated object at
    a content-keyed cache path must trigger a recompile, not be reused
    forever."""

    def _content_path(self, ws: Workspace, filename: str) -> str:
        key = ws._content_keys()[filename]
        return os.path.join(ws.cache_dir, f"{key}.o")

    def test_truncated_object_is_recompiled(self, tmp_path):
        ws = Workspace(cache_dir=str(tmp_path / "cache"))
        ws.add_source("a.c", "int x, *p; void f(void) { p = &x; }")
        # Plant a truncated object where the content key says it lives —
        # exactly what an in-place writer killed mid-write left behind.
        path = self._content_path(ws, "a.c")
        with open(path, "wb") as f:
            f.write(b"CLA\x01trunc")
        result = ws.points_to()
        assert ws.stats.compiled == 1
        assert ws.stats.reused == 0
        assert result.points_to("p") == {"x"}
        # The planted garbage was replaced by a valid object.
        from repro.cla.reader import DatabaseStore

        DatabaseStore.open(path).close()
        ws.close()

    def test_truncated_object_does_not_fail_forever(self, tmp_path):
        """The old behaviour: every build raised ClaFormatError at link
        time until the cache dir was wiped.  Two consecutive builds must
        now both succeed."""
        ws = Workspace(cache_dir=str(tmp_path / "cache"))
        ws.add_source("a.c", "int x, *p; void f(void) { p = &x; }")
        path = self._content_path(ws, "a.c")
        with open(path, "wb") as f:
            f.write(b"\x00" * 16)
        ws.build()
        ws2 = Workspace(cache_dir=ws.cache_dir)
        ws2.add_source("a.c", "int x, *p; void f(void) { p = &x; }")
        ws2.build()
        assert ws2.stats.reused == 1
        ws.close()
        ws2.close()

    def test_empty_object_file_is_recompiled(self, tmp_path):
        ws = Workspace(cache_dir=str(tmp_path / "cache"))
        ws.add_source("a.c", "int x, *p; void f(void) { p = &x; }")
        with open(self._content_path(ws, "a.c"), "wb"):
            pass
        ws.build()
        assert ws.stats.compiled == 1
        ws.close()


class TestBuildFailureCollection:
    """A failing unit in a batch reports alongside every other failure,
    and sibling successes keep their cache entries."""

    BAD1 = "int broken1('"
    BAD2 = "void also_broken2(void) { @ }"
    GOOD = "int x, *p; void good(void) { p = &x; }"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_all_failures_reported(self, tmp_path, jobs):
        ws = Workspace(cache_dir=str(tmp_path / f"cache{jobs}"))
        ws.add_source("bad1.c", self.BAD1)
        ws.add_source("bad2.c", self.BAD2)
        ws.add_source("good.c", self.GOOD)
        with pytest.raises(BuildError) as excinfo:
            ws.build(jobs=jobs)
        message = str(excinfo.value)
        assert "bad1.c" in message and "bad2.c" in message
        assert "good.c" not in message
        assert [f for f, _ in excinfo.value.failures] == ["bad1.c", "bad2.c"]
        ws.close()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_successes_committed_despite_failures(self, tmp_path, jobs):
        ws = Workspace(cache_dir=str(tmp_path / f"cache{jobs}"))
        ws.add_source("bad.c", self.BAD1)
        ws.add_source("good.c", self.GOOD)
        with pytest.raises(BuildError):
            ws.build(jobs=jobs)
        # good.c's object was committed: fixing bad.c recompiles only it.
        ws.update_source("good.c", self.GOOD)
        ws.update_source("bad.c", "int fixed;")
        ws.build(jobs=jobs)
        assert ws.stats.compiled == 1
        assert ws.stats.reused == 1
        ws.close()

    def test_failed_build_leaves_no_partial_objects(self, tmp_path):
        ws = Workspace(cache_dir=str(tmp_path / "cache"))
        ws.add_source("bad.c", self.BAD1)
        with pytest.raises(BuildError):
            ws.build(jobs=1)
        leftovers = [name for name in os.listdir(ws.cache_dir)
                     if name.endswith(".o")]
        assert leftovers == []
        ws.close()


class TestAnalysisAcrossEdits:
    def test_results_track_edits(self, workspace):
        r1 = workspace.points_to()
        assert r1.points_to("mine") == {"shared"}

        workspace.update_source(
            "c.c", '#include "defs.h"\nint other;'
                   "void redirect(void) { gp = &other; }"
        )
        r2 = workspace.points_to()
        assert r2.points_to("mine") == {"shared", "other"}
        assert workspace.stats.compiled == 1  # only c.c

    def test_equivalent_to_fresh_build(self, workspace, tmp_path):
        """After an edit, the workspace answers as a fresh build of its
        sources does: on the fixture, and on a generated gcc program
        whose edit adds a new pointer and target."""
        program = generate("gcc", scale=0.05, seed=42)
        generated = Workspace(cache_dir=str(tmp_path / "gcc"))
        generated.add_header(HEADER_NAME, program.header)
        for name, text in sorted(program.files.items()):
            generated.add_source(name, text)
        victim = sorted(program.files)[0]
        cases = [
            (workspace, "b.c",
             '#include "defs.h"\nint *mine, **pp;'
             "void use(void) { mine = gp; pp = &mine; }", {}),
            (generated, victim, program.files[victim] + (
                "\nint cla_new_target;\nint *cla_new_ptr;\n"
                "void cla_added(void) { cla_new_ptr = &cla_new_target; }\n"),
             {"cla_new_ptr": {"cla_new_target"}}),
        ]
        pipeline = Pipeline()
        for n, (ws, filename, text, expected) in enumerate(cases):
            ws.build()
            ws.update_source(filename, text)
            incremental = ws.points_to()

            fresh = Workspace(cache_dir=str(tmp_path / f"fresh{n}"))
            for name, header in ws._headers.items():
                fresh.add_header(name, header)
            for name in ws.sources():
                fresh.add_source(name, ws._sources[name])
            with pipeline.open_database(fresh.build()) as store:
                full = pipeline.analyze(store)
            for name, targets in expected.items():
                assert incremental.points_to(name) == targets, name
            for name in set(incremental.pts) | set(full.pts):
                assert incremental.points_to(name) == full.points_to(name), \
                    name
            fresh.close()
        generated.close()

    def test_persistent_cache_across_workspaces(self, tmp_path):
        cache = str(tmp_path / "persist")
        ws1 = Workspace(cache_dir=cache)
        ws1.add_source("a.c", "int x, *p; void f(void) { p = &x; }")
        ws1.build()
        ws1.close()

        ws2 = Workspace(cache_dir=cache)
        ws2.add_source("a.c", "int x, *p; void f(void) { p = &x; }")
        ws2.build()
        assert ws2.stats.compiled == 0
        assert ws2.stats.reused == 1
        ws2.close()


class TestParallelBuild:
    def test_parallel_equals_serial(self, tmp_path):
        program = generate("nethack", scale=0.05, seed=9)

        def build(cache, jobs):
            ws = Workspace(cache_dir=str(tmp_path / cache))
            ws.add_header(HEADER_NAME, program.header)
            for name, text in sorted(program.files.items()):
                ws.add_source(name, text)
            pipeline = Pipeline()
            with pipeline.open_database(ws.build(jobs=jobs)) as store:
                result = pipeline.analyze(store)
            ws.close()
            return result

        serial = build("serial", jobs=1)
        parallel = build("parallel", jobs=2)
        for name in set(serial.pts) | set(parallel.pts):
            assert serial.points_to(name) == parallel.points_to(name), name

    def test_parallel_stats(self, tmp_path):
        ws = Workspace(cache_dir=str(tmp_path / "p"))
        for i in range(4):
            ws.add_source(f"f{i}.c", f"int v{i}, *p{i};"
                                     f"void fn{i}(void) {{ p{i} = &v{i}; }}")
        ws.build(jobs=2)
        assert ws.stats.compiled == 4
        ws.build(jobs=2)
        assert ws.stats.compiled == 0
        assert ws.stats.reused == 4
        ws.close()


class TestPerSolveLoads:
    """Table 3's load columns describe one solve.  A workspace answers
    every solver from one linked store, so a solve after another must
    still report what a fresh store does."""

    @pytest.fixture(scope="class")
    def program(self):
        return generate("gcc", scale=0.02, seed=1)

    @pytest.fixture(scope="class")
    def fresh(self, program):
        units = program.project().units()
        pipeline = Pipeline()
        return {solver: pipeline.analyze(pipeline.link_units(units),
                                         solver).stats.as_dict()
                for solver in SOLVERS}

    @pytest.mark.parametrize("order", [sorted(SOLVERS),
                                       sorted(SOLVERS, reverse=True)])
    def test_each_solve_counts_as_a_fresh_store(self, program, fresh,
                                                order):
        workspace = program.project()
        for solver in order:
            stats = workspace.points_to(solver).stats
            assert stats.as_dict() == fresh[solver], solver

    @pytest.mark.parametrize("budget", [None, 400, 0])
    def test_solves_through_one_cache_keep_the_bounds(self, program,
                                                      budget):
        """A cache keeps what the last solve left resident; the next
        solve counts it as loaded, so in_core <= loaded still holds."""
        store = BlockCache(program.project().store(), budget)
        statics = len(store.fetch_statics())
        for solver in sorted(SOLVERS) * 2:
            stats = Pipeline().analyze(store, solver).stats
            assert (stats.assignments_in_core <= stats.assignments_loaded
                    <= stats.assignments_in_file), solver
            if budget is not None:
                assert stats.peak_in_core <= max(budget, statics), solver
