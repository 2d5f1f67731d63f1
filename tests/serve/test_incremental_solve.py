"""The serving guarantee, end to end: an ``update`` (an incremental
rebuild and relink, then a solve of the new database) yields exactly what
a cold solve of the edited project in a fresh workspace yields, for every
registered solver and every edit shape — additive, shrinking, mixed, unit
deletion, a database relinked under a database-mode daemon — and the
checker oracle accepts the served fixpoint.

The sessions here run with ``certify=True``, so the oracle runs *inside*
the daemon on every reload; these tests additionally compare against an
independent fresh-workspace solve, closing the loop outside the serve
machinery too.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.checker import check_result
from repro.engine.pipeline import Pipeline
from repro.serve import ServeSession
from repro.solvers import SOLVERS

from .conftest import (
    HEADER,
    SOURCE_A,
    SOURCE_B_GROWN,
    SOURCE_B_SHRUNK,
    make_workspace,
)


def cold_solve(tmp_path, tag, solver, sources):
    """Solve ``sources`` from scratch in a fresh workspace."""
    from repro.driver.incremental import Workspace

    ws = Workspace(cache_dir=str(tmp_path / tag))
    ws.add_header("defs.h", HEADER)
    for filename, text in sources.items():
        ws.add_source(filename, text)
    pipeline = Pipeline()
    try:
        with pipeline.open_database(ws.build()) as store:
            return pipeline.analyze(store, solver)
    finally:
        ws.close()


def cold_reference(tmp_path, solver):
    """Solve the grown-edit project from scratch in a fresh workspace."""
    return cold_solve(
        tmp_path, f"cold-{solver}", solver,
        {"a.c": SOURCE_A, "b.c": SOURCE_B_GROWN},
    )


def assert_bit_identical(served, cold, context):
    for name in set(served.pts) | set(cold.pts):
        assert served.points_to(name) == cold.points_to(name), \
            f"{context}: {name}"


class TestBitIdenticalAcrossSolvers:
    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    def test_update_matches_cold_solve(self, tmp_path, solver):
        ws = make_workspace(tmp_path, f"grow-{solver}")
        try:
            with ServeSession(workspace=ws, solver=solver,
                              certify=True) as session:
                update = session.request(
                    "update", {"file": "b.c", "text": SOURCE_B_GROWN}
                )
                assert update["ok"]
                assert update["result"]["certified"] is True
                assert_bit_identical(
                    session._result, cold_reference(tmp_path, solver),
                    solver,
                )
        finally:
            ws.close()

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    def test_served_fixpoint_passes_oracle(self, tmp_path, solver):
        ws = make_workspace(tmp_path, f"oracle-{solver}")
        try:
            with ServeSession(workspace=ws, solver=solver) as session:
                session.request("update",
                                {"file": "b.c", "text": SOURCE_B_GROWN})
                pipeline = Pipeline()
                with pipeline.open_database(ws.build()) as store:
                    report = check_result(
                        store, session._result,
                        check_minimal=(
                            SOLVERS[solver].precision == "andersen"
                        ),
                    )
                assert report.ok, report.render()
        finally:
            ws.close()

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    def test_chain_of_updates_stays_identical(self, tmp_path, solver):
        """A chain of additive edits: certify every generation and
        cross-check the last against a fresh-workspace solve."""
        edits = [
            '#include "defs.h"\nint *mine, *e1;'
            "void use(void) { mine = gp; e1 = mine; }",
            '#include "defs.h"\nint *mine, *e1, *e2;'
            "void use(void) { mine = gp; e1 = mine; e2 = e1; }",
            '#include "defs.h"\nint *mine, *e1, *e2, **pp;'
            "void use(void) { mine = gp; e1 = mine; e2 = e1; pp = &e2; }",
        ]
        ws = make_workspace(tmp_path, f"chain-{solver}")
        try:
            with ServeSession(workspace=ws, solver=solver,
                              certify=True) as session:
                for text in edits:
                    update = session.request("update",
                                             {"file": "b.c", "text": text})
                    assert update["ok"]
                    assert update["result"]["certified"] is True
                assert session.generation == 1 + len(edits)
                r = session.request("points-to", {"name": "pp"})
                assert r["result"]["points_to"] == {"pp": ["e2"]}
                cold = cold_solve(tmp_path, f"chain-cold-{solver}", solver,
                                  {"a.c": SOURCE_A, "b.c": edits[-1]})
                assert_bit_identical(session._result, cold,
                                     f"{solver}/chain")
        finally:
            ws.close()


#: Non-additive b.c edits: the ``mine = gp`` flow disappears; "mixed"
#: also introduces a brand-new flow in the same edit.
RETRACTION_EDITS = {
    "shrinking": SOURCE_B_SHRUNK,
    "mixed": ('#include "defs.h"\nint *mine, *fresh;'
              "void use(void) { fresh = gp; }"),
}


class TestRetractionAcrossSolvers:
    """Edits that retract constraints (shrinking and mixed edits, unit
    deletion, a shrunk database relinked in place) serve exactly the
    fresh-workspace solve, for every solver."""

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    @pytest.mark.parametrize("edit", sorted(RETRACTION_EDITS))
    def test_edit_matches_cold_solve(self, tmp_path, solver, edit):
        text = RETRACTION_EDITS[edit]
        ws = make_workspace(tmp_path, f"ret-{edit}-{solver}")
        try:
            with ServeSession(workspace=ws, solver=solver,
                              certify=True) as session:
                update = session.request("update",
                                         {"file": "b.c", "text": text})
                assert update["ok"]
                assert update["result"]["certified"] is True
                cold = cold_solve(
                    tmp_path, f"ret-cold-{edit}-{solver}", solver,
                    {"a.c": SOURCE_A, "b.c": text},
                )
                assert_bit_identical(session._result, cold,
                                     f"{solver}/{edit}")
        finally:
            ws.close()

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    def test_unit_deletion_matches_cold_solve(self, tmp_path, solver):
        ws = make_workspace(tmp_path, f"del-{solver}")
        try:
            with ServeSession(workspace=ws, solver=solver,
                              certify=True) as session:
                session.workspace.remove_source("b.c")
                update = session.request("reload", {})
                assert update["ok"]
                assert update["result"]["certified"] is True
                cold = cold_solve(tmp_path, f"del-cold-{solver}", solver,
                                  {"a.c": SOURCE_A})
                assert_bit_identical(session._result, cold,
                                     f"{solver}/deletion")
        finally:
            ws.close()

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    def test_database_mode_reload_retracts(self, tmp_path, solver):
        """Database mode: relink a shrunk project under the served path
        and reload."""
        ws = make_workspace(tmp_path, f"db-{solver}")
        try:
            path = ws.build()
            with ServeSession(database=path, solver=solver,
                              certify=True) as session:
                ws.update_source("b.c", SOURCE_B_SHRUNK)
                rebuilt = ws.build()
                assert rebuilt == path, "workspace must relink in place"
                update = session.request("reload", {})
                assert update["ok"]
                assert update["result"]["certified"] is True
                cold = cold_solve(tmp_path, f"db-cold-{solver}", solver,
                                  {"a.c": SOURCE_A, "b.c": SOURCE_B_SHRUNK})
                assert_bit_identical(session._result, cold,
                                     f"{solver}/database")
        finally:
            ws.close()


#: The statement pool random edit scripts draw from.  Every statement
#: only mentions names declared in every version of b.c, so any subset
#: compiles; different subsets produce genuinely added/removed rows.
_STMTS = (
    "p0 = &t0;", "p0 = &t1;", "p1 = p0;", "p1 = gp;",
    "p2 = p1;", "p2 = &t0;", "mine = gp;", "p0 = p2;",
)


def _b_text(mask: int) -> str:
    body = " ".join(s for i, s in enumerate(_STMTS) if mask & (1 << i))
    return ('#include "defs.h"\nint t0, t1; int *p0, *p1, *p2, *mine;'
            "void use(void) { " + body + " }")


class TestRandomEditScripts:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        script=st.lists(st.integers(min_value=0, max_value=255),
                        min_size=1, max_size=4),
        solver=st.sampled_from(sorted(SOLVERS)),
    )
    def test_round_trip_equals_cold_solve_of_final_sources(
        self, script, solver
    ):
        """Random edit script → the final served fixpoint equals a cold
        solve of the final sources; every intermediate generation is
        certified (the oracle, inside the daemon) and re-checked against
        the oracle here."""
        from repro.driver.incremental import Workspace

        ws = Workspace()  # its own temp dir; hypothesis reruns stay clean
        ws.add_header("defs.h", HEADER)
        ws.add_source("a.c", SOURCE_A)
        ws.add_source("b.c", _b_text(0))
        try:
            with ServeSession(workspace=ws, solver=solver,
                              certify=True) as session:
                pipeline = Pipeline()
                for mask in script:
                    update = session.request(
                        "update", {"file": "b.c", "text": _b_text(mask)}
                    )
                    assert update["ok"]
                    assert update["result"]["certified"] is True
                    with pipeline.open_database(ws.build()) as store:
                        report = check_result(
                            store, session._result,
                            check_minimal=(
                                SOLVERS[solver].precision == "andersen"
                            ),
                        )
                    assert report.ok, report.render()
                cold_ws = Workspace()
                cold_ws.add_header("defs.h", HEADER)
                cold_ws.add_source("a.c", SOURCE_A)
                cold_ws.add_source("b.c", _b_text(script[-1]))
                try:
                    with pipeline.open_database(cold_ws.build()) as store:
                        cold = pipeline.analyze(store, solver)
                finally:
                    cold_ws.close()
                assert_bit_identical(session._result, cold,
                                     f"{solver}/script={script}")
        finally:
            ws.close()
