"""Property test over request sequences: whatever a client sends, the
served generation is the one a cold solve of the workspace's current
sources computes.

A sequence mixes grows, undos and redos of one source, header edits, a
source added then removed (and a ``reload``), and a clashing update
followed by its fix, with ``points-to``, ``alias`` and ``chain`` reads in
between.  After every successful load the served points-to map must equal
a fresh workspace's solve of the same sources, name for name, and pass
the checker oracle; every read must answer as a fresh session over the
same sources does; generation numbers only grow; and under ``certify``
every load reports ``certified: true``.  Undos and redos return to a
generation the session kept, so this also checks that a generation
served again answers as a cold solve does.
"""

import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.checker import check_result
from repro.driver.incremental import Workspace
from repro.serve import ServeSession
from repro.solvers import SOLVERS

HEADER = "extern int shared; extern int *gp;\n"
HEADER_EDITED = HEADER + "extern int *hp;\n"
SOURCE_A = ('#include "defs.h"\nint shared; int *gp;\n'
            "void init(void) { gp = &shared; }\n")
SOURCE_B = ('#include "defs.h"\nint *mine;\n'
            "void use(void) { mine = gp; }\n")
SOURCE_C = ('#include "defs.h"\nint *late;\n'
            "void c(void) { late = gp; }\n")
#: Appended to b.c, it defines ``init`` a second time: the link fails.
CLASH = "void init(void) { mine = 0; }\n"

NAMES = ["mine", "gp", "shared", "late", "e0", "e1", "nope"]

reads = st.one_of(
    st.tuples(st.just("points-to"), st.sampled_from(NAMES)),
    st.tuples(st.just("alias"), st.sampled_from(NAMES),
              st.sampled_from(NAMES)),
    st.tuples(st.just("chain"), st.sampled_from(NAMES)),
)
steps = st.lists(
    st.sampled_from(["grow", "undo", "redo", "header", "add and remove",
                     "clash and fix"]) | reads,
    min_size=1, max_size=12,
)


def read_params(read: tuple) -> dict:
    op, *names = read
    if op == "alias":
        return {"a": names[0], "b": names[1]}
    return {"target" if op == "chain" else "name": names[0]}


class Script:
    """One session driven through a request sequence, with the fresh
    sessions that answer for each set of sources it served."""

    def __init__(self, solver: str, certify: bool, cache_dir: str):
        self.solver = solver
        self.certify = certify
        self.workspace = Workspace(cache_dir=cache_dir)
        self.workspace.add_header("defs.h", HEADER)
        self.workspace.add_source("a.c", SOURCE_A)
        self.workspace.add_source("b.c", SOURCE_B)
        self.session = ServeSession(workspace=self.workspace, solver=solver,
                                    certify=certify)
        self.generation = self.session.generation
        self.history: list[str] = []  # b.c texts an undo returns to
        self.undone: list[str] = []  # b.c texts a redo returns to
        self.grows = 0
        self.fresh: dict[tuple, ServeSession] = {}

    def close(self) -> None:
        self.session.close()
        self.workspace.close()
        for session in self.fresh.values():
            session.workspace.close()
            session.close()

    def sources(self) -> tuple:
        ws = self.workspace
        return (tuple(sorted(ws._headers.items())),
                tuple((name, ws._sources[name]) for name in ws.sources()))

    def fresh_session(self) -> ServeSession:
        """A session started from scratch over the current sources."""
        key = self.sources()
        if key not in self.fresh:
            ws = Workspace()
            headers, sources = key
            for name, text in headers:
                ws.add_header(name, text)
            for name, text in sources:
                ws.add_source(name, text)
            self.fresh[key] = ServeSession(workspace=ws, solver=self.solver)
        return self.fresh[key]

    def load(self, op: str, params: dict | None = None) -> dict:
        response = self.session.request(op, params)
        assert response["ok"], response
        assert response["generation"] > self.generation
        assert response["result"]["generation"] == response["generation"]
        self.generation = response["generation"]
        if self.certify:
            assert response["result"]["certified"] is True
        served, store = self.session._result, self.session._store
        cold = self.fresh_session()._result
        assert served.pts.keys() == cold.pts.keys()
        for name in served.pts:
            assert served.pts[name] == cold.pts[name], name
        report = check_result(
            store, served,
            check_minimal=SOLVERS[self.solver].precision == "andersen")
        assert report.ok, report.render()
        return response

    def edit_b(self, text: str) -> None:
        self.load("update", {"file": "b.c", "text": text})

    def step(self, step) -> None:
        current = self.workspace._sources["b.c"]
        if step == "grow":
            n = self.grows = self.grows + 1
            self.history.append(current)
            self.undone.clear()
            # Two grows may declare one pointer: a tentative definition.
            self.edit_b(current + f"int *e{n % 2};\n"
                        f"void g{n}(void) {{ e{n % 2} = mine; }}\n")
        elif step == "undo" and self.history:
            self.undone.append(current)
            self.edit_b(self.history.pop())
        elif step == "redo" and self.undone:
            self.history.append(current)
            self.edit_b(self.undone.pop())
        elif step == "header":
            header = self.workspace._headers["defs.h"]
            self.load("update", {
                "file": "defs.h", "kind": "header",
                "text": HEADER_EDITED if header == HEADER else HEADER})
        elif step == "add and remove":
            self.load("update", {"file": "c.c", "text": SOURCE_C})
            self.workspace.remove_source("c.c")
            self.load("reload")
        elif step == "clash and fix":
            clash = self.session.request(
                "update", {"file": "b.c", "text": current + CLASH})
            assert not clash["ok"] and "duplicate definition" in clash["error"]
            assert self.session.generation == self.generation
            self.edit_b(current)
        elif isinstance(step, tuple):
            op, params = step[0], read_params(step)
            mine = self.session.request(op, params)
            theirs = self.fresh_session().request(op, params)
            assert mine["generation"] == self.generation
            assert (mine["ok"], mine.get("result"), mine.get("error")) == (
                theirs["ok"], theirs.get("result"), theirs.get("error")), step


@pytest.mark.parametrize("solver,certify", [
    ("pretransitive", True), ("steensgaard", False)])
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(script=steps)
def test_served_generations_equal_cold_solves(solver, certify, script):
    with tempfile.TemporaryDirectory() as cache_dir:
        run = Script(solver, certify, cache_dir)
        try:
            for step in script:
                run.step(step)
        finally:
            run.close()
