"""Tests for :class:`ServeSession`: warm queries, the generation-keyed
query cache, incremental updates, and error envelopes."""

import pytest

from repro.driver.incremental import Workspace
from repro.engine.events import EVENTS, MemorySink
from repro.serve import ServeSession

from .conftest import SOURCE_B, SOURCE_B_GROWN, SOURCE_B_SHRUNK


class TestQueries:
    def test_points_to(self, session):
        r = session.request("points-to", {"name": "mine"})
        assert r["ok"] and not r["cache_hit"]
        assert r["result"]["points_to"] == {"mine": ["shared"]}

    def test_unknown_name_is_empty_not_error(self, session):
        r = session.request("points-to", {"name": "nosuch"})
        assert r["ok"]
        assert r["result"]["resolved"] == []
        assert r["result"]["points_to"] == {}

    def test_alias(self, session):
        r = session.request("alias", {"a": "mine", "b": "gp"})
        assert r["ok"]
        assert r["result"]["may_alias"] is True
        assert r["result"]["witness"] == ["shared"]
        r = session.request("alias", {"a": "mine", "b": "shared"})
        assert r["result"]["may_alias"] is False

    def test_chain(self, workspace):
        # *gp = v makes v's value flow into shared: a real dependence.
        workspace.update_source(
            "b.c", '#include "defs.h"\nint v, *mine;'
                   "void use(void) { mine = gp; *gp = v; }"
        )
        with ServeSession(workspace=workspace) as session:
            r = session.request("chain", {"target": "v"})
            assert r["ok"]
            assert r["result"]["dependents"] >= 1
            assert r["result"]["chains"]

    def test_chain_unknown_target_is_client_error(self, session):
        r = session.request("chain", {"target": "nosuch"})
        assert not r["ok"]
        assert "nosuch" in r["error"]

    def test_chain_rejects_bad_strength(self, session):
        r = session.request("chain", {"target": "shared",
                                      "min_strength": "bogus"})
        assert not r["ok"] and "min_strength" in r["error"]

    def test_ping_and_stats(self, session):
        assert session.request("ping")["result"]["pong"] is True
        stats = session.request("stats")["result"]
        assert stats["mode"] == "workspace"
        assert stats["solver"] == "pretransitive"
        assert stats["reloads"]["solved"] == 1

    def test_unknown_op(self, session):
        r = session.request("frobnicate")
        assert not r["ok"] and "unknown op" in r["error"]

    def test_missing_param(self, session):
        r = session.request("points-to", {})
        assert not r["ok"] and "name" in r["error"]

    def test_latency_counters_track_every_request(self, session):
        session.request("points-to", {"name": "mine"})
        session.request("points-to", {"name": "mine"})
        session.request("frobnicate")
        stats = session.request("stats")["result"]
        pt = stats["queries"]["points-to"]
        assert pt["count"] == 2
        assert pt["cache_hits"] == 1
        assert pt["mean_ms"] >= 0.0
        assert stats["queries"]["frobnicate"]["errors"] == 1


class TestQueryCacheSemantics:
    def test_second_identical_query_hits(self, session):
        r1 = session.request("points-to", {"name": "mine"})
        r2 = session.request("points-to", {"name": "mine"})
        assert not r1["cache_hit"] and r2["cache_hit"]
        assert r1["result"] == r2["result"]

    def test_param_order_is_canonical(self, session):
        session.request("alias", {"a": "mine", "b": "gp"})
        r = session.request("alias", {"b": "gp", "a": "mine"})
        assert r["cache_hit"]

    def test_update_invalidates(self, session):
        r1 = session.request("points-to", {"name": "extra"})
        assert r1["result"]["points_to"] == {}
        u = session.request("update", {"file": "b.c",
                                       "text": SOURCE_B_GROWN})
        assert u["ok"]
        r2 = session.request("points-to", {"name": "extra"})
        assert not r2["cache_hit"], "stale entry served across generations"
        assert r2["result"]["points_to"] == {"extra": ["shared"]}
        assert session.request("points-to",
                               {"name": "extra"})["cache_hit"]

    @pytest.mark.parametrize("file, bad, good", [
        ("b.c", "int bad(", SOURCE_B),
        # t.c defines a.c's init() a second time: it compiles, but the
        # workspace no longer links.
        ("t.c", "int y;\nint *init(void) { return &y; }\n", "int y;\n"),
    ], ids=["compile", "link"])
    def test_failed_update_keeps_serving_old_generation(
            self, session, file, bad, good):
        session.request("points-to", {"name": "mine"})
        before = session.generation
        u = session.request("update", {"file": file, "text": bad})
        assert not u["ok"] and file in u["error"]
        assert session.generation == before
        r = session.request("points-to", {"name": "mine"})
        assert r["cache_hit"], "old generation's cache should still serve"
        assert r["result"]["points_to"] == {"mine": ["shared"]}
        # healthz and stats both report the failure while still serving.
        health = session.health()
        assert health["status"] == "ok"
        assert health["generation"] == before
        failure = health["last_failure"]
        assert failure is not None
        assert failure["generation"] == before
        assert file in failure["error"]
        assert failure["age_s"] >= 0.0
        stats = session.request("stats")["result"]
        assert stats["reloads"]["failed"] == 1
        assert file in stats["last_failure"]["error"]
        # Fixing the file recovers; the failure record stays on display.
        u = session.request("update", {"file": file, "text": good})
        assert u["ok"]
        assert session.generation == before + 1
        assert session.health()["last_update"]["generation"] == before + 1

    def test_mutating_ops_are_never_cached(self, session):
        session.request("reload", {})
        r = session.request("reload", {})
        assert not r["cache_hit"]


class TestUpdates:
    def test_additive_update_recompiles_one_unit(self, session):
        u = session.request("update", {"file": "b.c",
                                       "text": SOURCE_B_GROWN})
        assert u["result"]["compiled"] == 1
        assert u["result"]["reused"] == 1
        assert u["result"]["certified"] is True
        assert set(u["result"]) == {
            "generation", "compiled", "reused", "certified", "seconds",
        }

    def test_shrinking_update_drops_the_flow(self, session):
        u = session.request("update", {"file": "b.c",
                                       "text": SOURCE_B_SHRUNK})
        assert u["result"]["certified"] is True
        # mine's flow is gone: nothing resolves, nothing points anywhere.
        r = session.request("points-to", {"name": "mine"})
        assert all(not v for v in r["result"]["points_to"].values())
        stats = session.request("stats")["result"]
        assert stats["reloads"] == {"solved": 2, "reused": 0, "certified": 2,
                                    "failed": 0}

    def test_new_file_via_update(self, session):
        u = session.request("update", {
            "file": "c.c",
            "text": '#include "defs.h"\nint *late;'
                    "void f(void) { late = gp; }",
        })
        assert u["ok"] and u["result"]["compiled"] == 1
        r = session.request("points-to", {"name": "late"})
        assert r["result"]["points_to"] == {"late": ["shared"]}

    def test_header_update(self, session):
        u = session.request("update", {
            "file": "defs.h",
            "text": "extern int shared; extern int *gp; extern int more;",
            "kind": "header",
        })
        assert u["ok"]
        assert u["result"]["compiled"] == 2  # header edit re-keys all

    def test_header_sent_as_source_is_a_client_error(self, tmp_path):
        ws = Workspace(cache_dir=str(tmp_path / "cache"))
        ws.add_header("h.h", "#define T x\n")
        ws.add_source("a.c", '#include "h.h"\nint x, y, *p;'
                             "void f(void) { p = &T; }")
        session = ServeSession(workspace=ws)
        edited = {"file": "h.h", "text": "#define T y\n"}
        r = session.request("update", {**edited, "kind": "source"})
        assert not r["ok"] and "already a header" in r["error"]
        assert r["generation"] == 1
        assert session.request("update", {**edited, "kind": "header"})["ok"]
        r = session.request("points-to", {"name": "p"})
        assert r["result"]["points_to"] == {"p": ["y"]}
        session.close()
        ws.close()

    def test_update_rejects_bad_kind(self, session):
        r = session.request("update",
                            {"file": "b.c", "text": "", "kind": "blob"})
        assert not r["ok"] and "kind" in r["error"]


class TestDatabaseMode:
    def test_serves_a_linked_database(self, workspace, tmp_path):
        path = workspace.build()
        with ServeSession(database=path) as session:
            r = session.request("points-to", {"name": "mine"})
            assert r["result"]["points_to"] == {"mine": ["shared"]}
            assert session.request("stats")["result"]["mode"] == "database"

    def test_update_is_a_client_error(self, workspace):
        path = workspace.build()
        with ServeSession(database=path) as session:
            r = session.request("update", {"file": "b.c", "text": "int x;"})
            assert not r["ok"] and "workspace" in r["error"]

    def test_reload_rereads_the_database(self, workspace):
        path = workspace.build()
        with ServeSession(database=path) as session:
            before = session.generation
            r = session.request("reload", {})
            assert r["ok"]
            assert session.generation == before + 1

    def test_constructor_wants_exactly_one_input(self, workspace):
        with pytest.raises(ValueError):
            ServeSession()
        with pytest.raises(ValueError):
            ServeSession(workspace=workspace, database="x.cla")

    def test_constructor_rejects_unknown_solver(self, workspace):
        with pytest.raises(ValueError):
            ServeSession(workspace=workspace, solver="magic")


class TestEvents:
    def test_query_and_reload_events(self, workspace):
        with EVENTS.sink(MemorySink()) as sink:
            with ServeSession(workspace=workspace) as session:
                session.request("points-to", {"name": "mine"})
                session.request("points-to", {"name": "mine"})
                session.request("update", {"file": "b.c",
                                           "text": SOURCE_B_GROWN})
            reloads = sink.of_kind("serve.reload")
            assert [e.generation for e in reloads] == [1, 2]
            assert reloads[1].compiled == 1
            queries = sink.of_kind("serve.query")
            ops = [e.op for e in queries]
            assert ops == ["points-to", "points-to", "update"]
            assert [e.cache_hit for e in queries[:2]] == [False, True]
            assert all(e.generation >= 1 for e in queries)

    def test_update_compile_is_a_stage(self, workspace):
        """An update's workspace build compiles through the pipeline's
        one compile driver: a ``compile`` stage in the ledger with one
        ``compile.unit`` event and one ``unit`` span inside it."""
        with ServeSession(workspace=workspace) as session:
            with EVENTS.sink(MemorySink()) as sink:
                session.request("update", {"file": "b.c",
                                           "text": SOURCE_B_GROWN})
        stages = [(e.stage, e.phase) for e in sink.of_kind("stage")]
        assert stages == [
            ("compile", "begin"),
            ("unit", "begin"), ("unit", "end"),
            ("compile", "end"),
            ("link", "begin"), ("link", "end"),
            ("analyze", "begin"), ("analyze", "end"),
        ]
        [unit] = sink.of_kind("compile.unit")
        assert unit.file == "b.c" and unit.assignments > 0
        begin, unit_begin = sink.of_kind("stage")[:2]
        assert unit_begin.parent == begin.id
        assert unit_begin.attrs["file"] == "b.c"

    def test_error_queries_are_ledgered(self, workspace):
        with EVENTS.sink(MemorySink()) as sink:
            with ServeSession(workspace=workspace) as session:
                session.request("frobnicate")
            event = sink.of_kind("serve.query")[-1]
            assert event.ok is False


class TestTraceRingDisabled:
    def test_zero_disables_both_rings_but_keeps_counts(self, workspace):
        with ServeSession(workspace=workspace, trace_ring=0,
                          slow_query_ms=0.0) as session:
            session.request("points-to", {"name": "mine"})
            session.request("points-to", {"name": "mine"})
            traces = session.request("traces")["result"]
            assert traces["recent"] == []
            assert traces["slow"] == [], "slow log must honour 0 = disabled"
            assert traces["seen"] >= 2
            assert session.health()["queries"] >= 2
