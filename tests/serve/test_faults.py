"""Faults mid-update, and certification across two routes.

An update moves through four seams: compile, link, solve and certify.
A fault in any of them must leave the previous generation serving and
name itself in ``stats`` and ``health()``, and the next good update must
link afresh.  With ``certify=True`` the in-memory generation is also
checked against a cold solve of its written database, which catches
faults the checker oracle cannot see: the oracle proves a result closed
under its own store's constraints, not that two stores agree.
"""

import dataclasses

import pytest

from repro.checker import check_result
from repro.cla.store import MemoryStore
from repro.engine.pipeline import Pipeline
from repro.serve import CertificationError, ServeSession

from .conftest import SOURCE_B_GROWN


class Fault(RuntimeError):
    """The injected failure."""


SEAMS = {
    "compile": (Pipeline, "compile"),
    "link": (Pipeline, "link_units"),
    "solve": (Pipeline, "analyze"),
    "certify": (ServeSession, "_certify"),
}


@pytest.mark.parametrize("seam", sorted(SEAMS))
def test_fault_mid_update_keeps_the_previous_generation(
        workspace, monkeypatch, seam):
    owner, attr = SEAMS[seam]
    links = []
    link_units = Pipeline.link_units

    def counting_link(self, units):
        store = link_units(self, units)
        links.append(store)
        return store

    monkeypatch.setattr(Pipeline, "link_units", counting_link)
    with ServeSession(workspace=workspace, certify=True) as session:
        before = session.generation
        served = session._store
        answer = session.request("points-to", {"name": "mine"})["result"]

        def fail(*args, **kwargs):
            raise Fault(f"injected {seam} fault")

        with monkeypatch.context() as patch:
            patch.setattr(owner, attr, fail)
            with pytest.raises(Fault):
                session.request("update",
                                {"file": "b.c", "text": SOURCE_B_GROWN})

        assert session.generation == before
        assert session._store is served
        # A fresh lookup (not a cache hit) still answers from the old
        # generation.
        fresh = session.request("points-to", {"name": "gp"})
        assert fresh["ok"] and not fresh["cache_hit"]
        assert fresh["result"]["points_to"] == {"gp": ["shared"]}
        assert session.request("points-to", {"name": "mine"})["result"] \
            == answer
        error = f"Fault: injected {seam} fault"
        stats = session.request("stats")["result"]
        assert stats["last_failure"]["error"] == error
        assert stats["last_failure"]["generation"] == before
        assert stats["reloads"]["failed"] == 1
        health = session.health()
        assert health["last_failure"]["error"] == error
        assert health["generation"] == before

        linked = len(links)
        update = session.request("update",
                                 {"file": "b.c", "text": SOURCE_B_GROWN})
        assert update["ok"] and update["result"]["certified"]
        assert session.generation == before + 1
        assert any(session._store is store for store in links[linked:])
        extra = session.request("points-to", {"name": "extra"})
        assert extra["result"]["points_to"] == {"extra": ["shared"]}


def test_certify_rejects_a_store_that_loses_a_target(workspace, monkeypatch):
    with ServeSession(workspace=workspace, certify=True) as session:
        find_targets = MemoryStore.find_targets
        monkeypatch.setattr(MemoryStore, "find_targets",
                            lambda self, name: find_targets(self, name)[1:])
        # The oracle never looks a name up: it accepts this store.
        store = Pipeline().link_units(workspace.units())
        assert check_result(store, Pipeline().analyze(store)).ok
        before = session.generation
        with pytest.raises(CertificationError, match="targets of"):
            session.request("update",
                            {"file": "b.c", "text": SOURCE_B_GROWN})
        assert session.generation == before


def test_certify_rejects_a_database_missing_a_flag(workspace, monkeypatch):
    write = Pipeline.write_executable
    written = []

    def drop_may_point(self, store, path):
        unit = store.to_unit()
        unit.objects["mine"] = dataclasses.replace(
            unit.objects["mine"], may_point=False)
        written.append(path)
        return write(self, MemoryStore(unit), path)

    with ServeSession(workspace=workspace, certify=True) as session:
        monkeypatch.setattr(Pipeline, "write_executable", drop_may_point)
        before = session.generation
        with pytest.raises(CertificationError, match="pts"):
            session.request("update",
                            {"file": "b.c", "text": SOURCE_B_GROWN})
        assert session.generation == before
    # The oracle accepts the faulty database's own fixpoint: it is a
    # closed model of the constraints that database holds.
    pipeline = Pipeline()
    with pipeline.open_database(written[-1]) as store:
        result = pipeline.analyze(store)
        assert check_result(store, result).ok
