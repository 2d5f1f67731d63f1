"""An undo serves again the generation it returns to.

In workspace mode the session keeps the generation its last load
replaced.  A load whose held units are, object for object, the ones the
serving or the kept generation was linked from serves that generation
again under a new generation number: no link, no solve, no
certification.  Any other load releases the kept generation before it
compiles, reads back, links or solves anything, so at most two
generations are ever alive.
"""

import gc
import weakref

import pytest

from repro.driver.incremental import Workspace
from repro.engine.events import EVENTS, MemorySink
from repro.engine.obs import REGISTRY
from repro.engine.pipeline import Pipeline
from repro.serve import ServeSession

from .conftest import SOURCE_B, SOURCE_B_GROWN

SOURCE_B_OTHER = SOURCE_B_GROWN + "int *other; void o(void) { other = gp; }"


def spy(monkeypatch, owner, name, before):
    """Run ``before(name)`` ahead of every call of ``owner.name``."""
    real = getattr(owner, name)

    def spied(self, *args, **kwargs):
        before(name)
        return real(self, *args, **kwargs)
    monkeypatch.setattr(owner, name, spied)


@pytest.fixture
def calls(monkeypatch):
    """How often an update links, solves and certifies."""
    counts = {"link_units": 0, "analyze": 0, "_certify": 0}

    def count(name):
        counts[name] += 1
    spy(monkeypatch, Pipeline, "link_units", count)
    spy(monkeypatch, Pipeline, "analyze", count)
    spy(monkeypatch, ServeSession, "_certify", count)
    return counts


def update(session, text, file="b.c"):
    response = session.request("update", {"file": file, "text": text})
    assert response["ok"], response
    return response


class TestServedAgain:
    def test_undo_serves_the_kept_generation(self, session, calls):
        start = session._store, session._result
        mine = session.request("points-to", {"name": "mine"})
        grow = update(session, SOURCE_B_GROWN)
        grown = session._store, session._result
        # The certified grow links and solves twice: in memory, then its
        # written database, cold.
        assert calls == {"link_units": 2, "analyze": 2, "_certify": 1}
        undo = update(session, SOURCE_B)
        assert calls == {"link_units": 2, "analyze": 2, "_certify": 1}
        assert (session._store, session._result) == start
        assert undo["result"]["generation"] == grow["result"]["generation"] + 1
        assert undo["result"]["compiled"] == 0
        assert undo["result"]["reused"] == 2
        assert undo["result"]["certified"] is True
        again = session.request("points-to", {"name": "mine"})
        assert not again["cache_hit"]  # a new generation, an empty cache
        assert again["result"] == mine["result"]
        # The redo returns to the grown generation, kept by the undo.
        update(session, SOURCE_B_GROWN)
        assert (session._store, session._result) == grown
        assert calls["analyze"] == 2
        stats = session.request("stats")["result"]
        assert stats["reloads"] == {"solved": 2, "reused": 2, "certified": 4,
                                    "failed": 0}

    def test_reload_serves_the_serving_generation(self, session, calls):
        served = session._store
        before = session.generation
        reload = session.request("reload")
        assert reload["ok"] and reload["result"]["certified"]
        assert session._store is served
        assert session.generation == before + 1
        assert calls == {"link_units": 0, "analyze": 0, "_certify": 0}

    def test_a_failed_update_then_its_undo(self, session, calls):
        """A clash releases the kept generation and changes nothing else;
        returning to the serving text serves the serving generation."""
        served = session._store
        clash = session.request("update", {
            "file": "b.c",
            "text": SOURCE_B + "void init(void) { mine = 0; }"})
        assert not clash["ok"] and "duplicate definition" in clash["error"]
        assert session._kept is None
        update(session, SOURCE_B)
        assert session._store is served
        assert calls["analyze"] == 0

    def test_a_header_changed_on_disk_is_solved(self, tmp_path):
        (tmp_path / "t.h").write_text("#define TARGET a\n")
        source = tmp_path / "t.c"
        text = '#include "t.h"\nint a, b, *p;\nvoid f(void) { p = &TARGET; }\n'
        source.write_text(text)
        ws = Workspace()
        ws.add_file(str(source))
        with ServeSession(workspace=ws) as session:
            update(session, text + "int *q;\n", file=str(source))
            (tmp_path / "t.h").write_text("#define TARGET b\n")
            # The content key is the start's, but the unit read t.h.
            undo = update(session, text, file=str(source))
            assert undo["result"]["compiled"] == 1
            answer = session.request("points-to", {"name": "p"})["result"]
            assert answer["points_to"] == {"p": ["b"]}
            assert session.request("stats")["result"]["reloads"]["reused"] \
                == 0
        ws.close()

    def test_database_mode_solves_every_reload(self, workspace, calls):
        with ServeSession(database=workspace.build()) as session:
            served = session._store
            assert session.request("reload")["ok"]
            assert session._store is not served
            assert session._kept is None
            assert calls["analyze"] == 2
            assert session.request("stats")["result"]["reloads"] == {
                "solved": 2, "reused": 0, "certified": 0, "failed": 0}


class TestTelemetry:
    def test_reload_events_and_counters(self, workspace):
        reused = REGISTRY.counter("serve.reloads.reused")
        counted = reused.value
        with EVENTS.sink(MemorySink()) as sink:
            with ServeSession(workspace=workspace, certify=True) as session:
                update(session, SOURCE_B_GROWN)
                update(session, SOURCE_B)
            events = sink.of_kind("serve.reload")
        assert [(e.generation, e.solved, e.certified) for e in events] == [
            (1, True, True), (2, True, True), (3, False, True)]
        assert reused.value == counted + 1


class TestMemory:
    """The kept generation is dead before a load it does not match
    compiles, reads back, links or solves anything."""

    @pytest.mark.parametrize("edit", ["compile", "read back", "link"])
    def test_kept_generation_released_first(self, workspace, monkeypatch,
                                            edit):
        session = ServeSession(workspace=workspace)
        update(session, SOURCE_B_GROWN)
        update(session, SOURCE_B)  # the grown generation is now kept
        if edit == "read back":
            # The grown unit leaves memory; the start's generation is kept.
            update(session, SOURCE_B_OTHER)
        refs = [weakref.ref(session._kept.store),
                weakref.ref(session._kept.result)]
        seen = []

        def dead(name):
            seen.append((name, [ref() is None for ref in refs]))
        for owner, name in [(Pipeline, "compile"),
                            (Workspace, "_read_object"),
                            (Pipeline, "link_units"), (Pipeline, "analyze")]:
            spy(monkeypatch, owner, name, dead)
        enabled = gc.isenabled()
        gc.disable()  # dead by reference count, not by a collection
        try:
            if edit == "compile":
                update(session, SOURCE_B_OTHER)
            elif edit == "read back":
                update(session, SOURCE_B_GROWN)  # neither held nor kept
            else:
                workspace.remove_source("b.c")
                assert session.request("reload")["ok"]
        finally:
            if enabled:
                gc.enable()
        expected = {"compile": {"compile", "link_units", "analyze"},
                    "read back": {"_read_object", "link_units", "analyze"},
                    "link": {"link_units", "analyze"}}[edit]
        assert expected <= {name for name, _dead in seen}, seen
        assert all(all(flags) for _name, flags in seen), seen
        session.close()
