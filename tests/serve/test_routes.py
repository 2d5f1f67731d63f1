"""A workspace-mode daemon links and solves in memory; a database-mode
daemon serves the written database.  The two routes must answer every
query alike through any sequence of edits, and an update must cost at
most one unit: the one it compiles or the one it reads back from the
object-file cache (an undo of the last change costs neither), never a
database write."""

import gc
import os

import pytest

from repro.cfront.lexer import Token
from repro.cla.linker import link_object_files
from repro.cla.reader import DatabaseStore
from repro.cla.store import simple_name_of
from repro.driver.incremental import Workspace
from repro.engine.pipeline import Pipeline
from repro.serve import ServeSession

HEADER = "extern int shared; extern int *gp;\n"
#: ``dup`` and ``t`` are defined in both units, ``t`` in two functions.
SOURCE_A = ('#include "defs.h"\nint shared; int *gp;\n'
            "static int *dup; static int loc;\n"
            "void init(void) { int *t; gp = &shared; dup = &loc; t = dup; }\n")
SOURCE_B = ('#include "defs.h"\nint *mine; static int *dup;\n'
            "static int other;\n"
            "void use(void) { int *t; mine = gp; dup = &other; t = mine; }\n")
SOURCE_B_GROWN = SOURCE_B + (
    "int *extra; void more(void) { int *t; extra = mine; t = extra; }\n")
HEADER_EDITED = HEADER + "extern int *hp;\n"
SOURCE_C = ('#include "defs.h"\nint *late; static int *dup;\n'
            "void c(void) { late = gp; dup = late; }\n")


def make_workspace(cache_dir: str) -> Workspace:
    ws = Workspace(cache_dir=cache_dir)
    ws.add_header("defs.h", HEADER)
    ws.add_source("a.c", SOURCE_A)
    ws.add_source("b.c", SOURCE_B)
    return ws


def object_files(ws: Workspace) -> list[str]:
    """The cached object file of every current source, in link order."""
    return [os.path.join(ws.cache_dir, f"{key}.o")
            for key in ws._content_keys().values()]


def queries(session: ServeSession) -> list[tuple[str, dict]]:
    """Every points-to and chain query the program can answer, and alias
    queries over every pair of simple names."""
    names = sorted({simple_name_of(n) for n in session._result.pts})
    ops = [("points-to", {"name": n}) for n in names]
    ops += [("alias", {"a": a, "b": b}) for a in names for b in names
            if a < b]
    ops += [("chain", {"target": n}) for n in names]
    return ops


def assert_routes_agree(session: ServeSession, ws: Workspace, tmp_path,
                        step: str) -> None:
    database = str(tmp_path / f"{step}.cla")
    link_object_files(object_files(ws), database)
    with ServeSession(database=database) as reference:
        ops = queries(reference)
        assert any(len(r) > 1 for r in (
            reference._store.find_targets(p["name"])
            for op, p in ops if op == "points-to")), "no shared simple name"
        for op, params in ops:
            mine = session.request(op, params)
            theirs = reference.request(op, params)
            assert mine["ok"] == theirs["ok"], (step, op, params)
            assert mine.get("result") == theirs.get("result"), \
                (step, op, params)


def test_routes_agree_through_edits_and_a_restart(tmp_path):
    cache = str(tmp_path / "cache")
    ws = make_workspace(cache)
    steps = [
        ("grow", "source", "b.c", SOURCE_B_GROWN),
        ("undo", "source", "b.c", SOURCE_B),
        ("header", "header", "defs.h", HEADER_EDITED),
        ("add", "source", "c.c", SOURCE_C),
    ]
    with ServeSession(workspace=ws, certify=True) as session:
        assert_routes_agree(session, ws, tmp_path, "start")
        for step, kind, file, text in steps:
            update = session.request(
                "update", {"file": file, "text": text, "kind": kind})
            assert update["ok"], update
            assert update["result"]["certified"]
            assert_routes_agree(session, ws, tmp_path, step)
        ws.remove_source("c.c")
        assert session.request("reload")["ok"]
        assert_routes_agree(session, ws, tmp_path, "remove")
    sources = {name: ws._sources[name] for name in ws.sources()}
    restarted = Workspace(cache_dir=cache)
    restarted.add_header("defs.h", HEADER_EDITED)
    for name, text in sources.items():
        restarted.add_source(name, text)
    with ServeSession(workspace=restarted) as session:
        assert restarted.stats.compiled == 0
        assert restarted.stats.read == len(sources)
        assert_routes_agree(session, restarted, tmp_path, "restart")


class TestUpdateCost:
    """Within one update: a grow compiles its unit and reads no object
    file, an undo of the last change compiles and reads nothing (the
    workspace kept the unit it displaced), a return to the text of two
    changes back reads one object file, and none writes the database."""

    @pytest.fixture
    def spied(self, tmp_path, monkeypatch):
        ws = make_workspace(str(tmp_path / "cache"))
        session = ServeSession(workspace=ws)
        counts = {"read": 0, "written": 0}
        open_database = DatabaseStore.__init__
        write = Pipeline.write_executable

        def counting_open(self, *args, **kwargs):
            counts["read"] += 1
            open_database(self, *args, **kwargs)

        def counting_write(self, *args, **kwargs):
            counts["written"] += 1
            return write(self, *args, **kwargs)

        monkeypatch.setattr(DatabaseStore, "__init__", counting_open)
        monkeypatch.setattr(Pipeline, "write_executable", counting_write)
        yield ws, session, counts
        session.close()

    def test_grow_compiles_one_unit(self, spied):
        ws, session, counts = spied
        update = session.request("update",
                                 {"file": "b.c", "text": SOURCE_B_GROWN})
        assert update["ok"]
        assert update["result"]["compiled"] == 1
        assert ws.stats.read == 0
        assert counts == {"read": 0, "written": 0}

    def test_undo_compiles_and_reads_nothing(self, spied):
        ws, session, counts = spied
        session.request("update", {"file": "b.c", "text": SOURCE_B_GROWN})
        counts.update(read=0, written=0)
        update = session.request("update", {"file": "b.c", "text": SOURCE_B})
        assert update["ok"]
        assert update["result"]["compiled"] == 0
        assert update["result"]["reused"] == 2
        assert ws.stats.read == 0
        assert counts == {"read": 0, "written": 0}
        assert not os.path.exists(os.path.join(ws.cache_dir, "workspace.cla"))

    def test_return_from_two_changes_back_reads_one_object_file(self, spied):
        ws, session, counts = spied
        session.request("update", {"file": "b.c", "text": SOURCE_B_GROWN})
        session.request("update", {"file": "b.c", "text": SOURCE_B_GROWN
                                   + "int *again;\n"})
        counts.update(read=0, written=0)
        update = session.request("update", {"file": "b.c", "text": SOURCE_B})
        assert update["ok"]
        assert update["result"]["compiled"] == 0
        assert update["result"]["reused"] == 2
        assert ws.stats.read == 1
        assert counts == {"read": 1, "written": 0}
        assert not os.path.exists(os.path.join(ws.cache_dir, "workspace.cla"))


def live_tokens() -> int:
    gc.collect()
    return sum(type(obj) is Token for obj in gc.get_objects())


def test_edits_retain_no_tokens(tmp_path):
    """The include token cache holds headers only, one entry per file:
    forty distinct edits of a unit leave no more tokens alive than the
    daemon held after its start."""
    ws = make_workspace(str(tmp_path / "cache"))
    with ServeSession(workspace=ws) as session:
        start = live_tokens()
        for n in range(40):
            text = SOURCE_B + (f"static int e{n}, *q{n};\n"
                               f"void grow{n}(void) {{ q{n} = &e{n}; }}\n")
            assert session.request("update",
                                   {"file": "b.c", "text": text})["ok"]
        assert live_tokens() <= start
