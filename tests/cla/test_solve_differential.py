"""Every solver answers alike from a database and from memory.

For each database of the reader corpus (``corpus.py``), every solver
solves a :class:`DatabaseStore` and a :class:`MemoryStore` of the same
sources, both plain and behind a statics-only :class:`BlockCache`; the
pre-transitive solver also with demand loading off.  The two runs must
agree on the points-to sets, on every field of every ``result.objects``
entry (locations as ``<file:line>``: object files drop columns) and on
Table 3's counts.
"""

import dataclasses

import pytest

from repro.cla.cache import BlockCache
from repro.cla.reader import DatabaseStore
from repro.cla.store import MemoryStore
from repro.engine.pipeline import CompileOptions, compile_source
from repro.solvers import SOLVERS

from .corpus import CASES, case_sources

#: (solver, constructor keywords)
RUNS = [(name, {}) for name in SOLVERS] + [
    ("pretransitive", {"demand_load": False}),
]

_UNITS: dict[str, list] = {}


def _memory_store(case: str) -> MemoryStore:
    """A fresh store of the case's sources, compiled in memory (once)."""
    if case not in _UNITS:
        sources, headers = case_sources(case)
        options = CompileOptions()
        options.virtual_files.update(headers)
        _UNITS[case] = [
            compile_source(text, filename=name, options=options)
            for name, text in sorted(sources.items())
        ]
    return MemoryStore(_UNITS[case])


def _wrap(store, cached: bool):
    return BlockCache(store, 0) if cached else store


def _fields(obj) -> dict:
    out = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    out["location"] = obj.location.brief()
    return out


def _answers(store, solver: str, options: dict) -> dict:
    try:
        result = SOLVERS[solver](store, **options).solve()
        stats = store.stats
        return {
            "pts": {name: result.points_to(name) for name in result.pts},
            "objects": {name: _fields(obj)
                        for name, obj in result.objects.items()},
            "table3": (result.pointer_variables(),
                       result.points_to_relations(),
                       stats.snapshot(), stats.blocks_loaded),
        }
    finally:
        store.close()


@pytest.mark.parametrize("cached", [False, True], ids=["plain", "statics-only"])
@pytest.mark.parametrize("solver,options", RUNS,
                         ids=[f"{n}{'-full' if o else ''}" for n, o in RUNS])
@pytest.mark.parametrize("case", CASES)
def test_database_solve_matches_memory(cla_corpus, case, solver, options,
                                       cached):
    database = cla_corpus[case][-1]
    on_disk = _answers(_wrap(DatabaseStore.open(database), cached),
                       solver, options)
    in_memory = _answers(_wrap(_memory_store(case), cached), solver, options)
    assert on_disk["pts"] == in_memory["pts"]
    assert on_disk["objects"] == in_memory["objects"]
    assert on_disk["table3"] == in_memory["table3"]
