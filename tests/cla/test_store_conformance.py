"""Conformance suite: every ConstraintStore backend obeys one accounting
contract.

Parametrized over MemoryStore, DatabaseStore, and BlockCache-wrapped
variants (unbounded and tiny-budget) of both, all built from the same
constraint program.  The invariants under test are the protocol's:

* ``in_core <= loaded <= in_file`` at every observable moment;
* a block's assignments count into ``loaded``/``in_core`` once, no matter
  how often it is requested — repeats are hits or ``reloads``, never new
  coverage or residency;
* the static section is counted once;
* ``fetch_block``/``fetch_statics`` are uncounted raw access.
"""

import pytest

from repro.cla.cache import BlockCache
from repro.cla.reader import DatabaseStore
from repro.cla.store import MemoryStore
from repro.cla.writer import write_unit
from repro.ir.lower import UnitIR
from repro.ir.primitives import PrimitiveAssignment, PrimitiveKind

#: The shared program: 2 statics, block "p" (2 assignments), block "q" (1).
ASSIGNMENTS = [
    PrimitiveAssignment(kind=PrimitiveKind.ADDR, dst="p", src="x"),
    PrimitiveAssignment(kind=PrimitiveKind.ADDR, dst="q", src="y"),
    PrimitiveAssignment(kind=PrimitiveKind.COPY, dst="r", src="p"),
    PrimitiveAssignment(kind=PrimitiveKind.COPY, dst="s", src="p"),
    PrimitiveAssignment(kind=PrimitiveKind.LOAD, dst="t", src="q"),
]
N_STATICS = 2
BLOCK_SIZES = {"p": 2, "q": 1}
IN_FILE = N_STATICS + sum(BLOCK_SIZES.values())

BACKENDS = [
    "memory", "database",
    "cached-memory", "cached-database", "cached-database-tiny",
]


def _unit() -> UnitIR:
    return UnitIR(filename="conformance.c", assignments=list(ASSIGNMENTS))


def _memory_store() -> MemoryStore:
    return MemoryStore(_unit())


def _database_store(tmp_path) -> DatabaseStore:
    path = str(tmp_path / "conformance.o")
    write_unit(_unit(), path)
    return DatabaseStore.open(path)


@pytest.fixture(params=BACKENDS)
def store(request, tmp_path):
    if request.param == "memory":
        s = _memory_store()
    elif request.param == "database":
        s = _database_store(tmp_path)
    elif request.param == "cached-memory":
        s = BlockCache(_memory_store(), None)
    elif request.param == "cached-database":
        s = BlockCache(_database_store(tmp_path), None)
    else:  # cached-database-tiny: statics only, no block ever retained
        s = BlockCache(_database_store(tmp_path), N_STATICS)
    yield s
    close = getattr(s, "close", None)
    if close is not None:
        close()


def check_invariants(store):
    st = store.stats
    assert 0 <= st.in_core <= st.loaded <= st.in_file
    assert st.in_core <= st.peak_in_core
    assert st.in_file == IN_FILE


class TestAccountingContract:
    def test_fresh_store_invariants(self, store):
        check_invariants(store)

    def test_statics_counted_once(self, store):
        before = store.stats.loaded
        first = store.static_assignments()
        assert len(first) == N_STATICS
        counted = store.stats.loaded
        store.static_assignments()
        assert store.stats.loaded == counted
        # Counted at most once ever (a BlockCache counts them eagerly at
        # construction, so the delta here may be zero).
        assert counted - before in (0, N_STATICS)
        check_invariants(store)

    def test_block_counted_once(self, store):
        store.static_assignments()
        before_loaded = store.stats.loaded
        block = store.load_block("p")
        assert block is not None and len(block.assignments) == 2
        assert store.stats.loaded == before_loaded + 2
        after_core = store.stats.in_core
        # Repeat requests: same content, no new coverage, no new residency.
        for _ in range(3):
            again = store.load_block("p")
            assert len(again.assignments) == 2
            assert store.stats.loaded == before_loaded + 2
            assert store.stats.in_core == after_core
        check_invariants(store)

    def test_full_scan_twice(self, store):
        store.static_assignments()
        for _round in range(2):
            for name in list(store.block_names()):
                assert store.load_block(name) is not None
                check_invariants(store)
        # The second scan re-requested every block; repeats surface as
        # hits or reloads (or, for a store that retains everything
        # anyway, nothing at all) — never as loaded coverage, which is
        # complete after the first scan and stays put.
        assert store.stats.loaded == IN_FILE
        check_invariants(store)

    def test_missing_block_uncounted(self, store):
        before = store.stats.snapshot()
        assert store.load_block("no-such-object") is None
        assert store.load_block("no-such-object") is None
        assert store.stats.snapshot() == before

    def test_fetch_block_uncounted(self, store):
        before_loaded = store.stats.loaded
        before_core = store.stats.in_core
        block = store.fetch_block("q")
        assert block is not None and len(block.assignments) == 1
        assert store.stats.loaded == before_loaded
        assert store.stats.in_core == before_core

    def test_fetch_statics_uncounted_and_stable(self, store):
        before_loaded = store.stats.loaded
        statics = store.fetch_statics()
        assert len(statics) == N_STATICS
        assert store.stats.loaded == before_loaded

    def test_block_names_cover_program(self, store):
        assert set(store.block_names()) == set(BLOCK_SIZES)

    def test_find_targets(self, store):
        assert store.find_targets("p") == ["p"]


class TestTinyBudgetResidency:
    """The bounded wrapper keeps ``in_core`` at the budget even under
    adversarial re-request patterns."""

    def test_peak_never_exceeds_budget(self, tmp_path):
        budget = N_STATICS  # room for the statics, none for blocks
        with BlockCache(_database_store(tmp_path), budget) as cache:
            cache.static_assignments()
            for _ in range(3):
                for name in list(cache.block_names()):
                    cache.load_block(name)
                    assert cache.stats.in_core <= budget
            assert cache.stats.peak_in_core <= budget
            assert cache.stats.loaded == IN_FILE
            # Every repeat request had to re-read: nothing was retained.
            assert cache.stats.reloads == 2 * sum(BLOCK_SIZES.values())
            assert cache.stats.block_hits == 0
