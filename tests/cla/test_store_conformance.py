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
* ``fetch_block``/``fetch_statics`` are uncounted raw access;
* ``restart_counts`` starts one solve's counts afresh.
"""

import pytest

from repro.cla.cache import BlockCache
from repro.cla.reader import DatabaseStore
from repro.cla.store import MemoryStore, ObjectFlags
from repro.cla.writer import write_unit
from repro.ir.lower import UnitIR
from repro.ir.objects import ObjectKind, ProgramObject
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


def _database_store(tmp_path) -> DatabaseStore:
    path = str(tmp_path / "conformance.o")
    write_unit(_unit(), path)
    return DatabaseStore.open(path)


def _backend(kind: str, unit: UnitIR, tmp_path):
    if kind.endswith("memory"):
        s = MemoryStore(unit)
    else:
        path = str(tmp_path / f"{unit.filename}.o")
        write_unit(unit, path)
        s = DatabaseStore.open(path)
    if kind == "cached-database-tiny":  # statics only, no block retained
        return BlockCache(s, N_STATICS)
    if kind.startswith("cached"):
        return BlockCache(s, None)
    return s


@pytest.fixture(params=BACKENDS)
def store(request, tmp_path):
    s = _backend(request.param, _unit(), tmp_path)
    yield s
    s.close()


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

    def test_restart_counts_afresh(self, store):
        """A solve starts with ``restart_counts``: a store that owns its
        rows counts from zero again, a cache keeps what is resident and
        counts it as loaded."""
        store.static_assignments()
        for name in list(store.block_names()):
            store.load_block(name)
        store.restart_counts()
        check_invariants(store)
        st = store.stats
        cached = isinstance(store, BlockCache)
        if cached:
            assert st.loaded == st.in_core >= N_STATICS
        else:
            assert (st.in_core, st.loaded, st.blocks_loaded) == (0, 0, 0)
        store.static_assignments()
        store.load_block("p")
        check_invariants(store)
        if not cached:
            assert st.loaded == N_STATICS + BLOCK_SIZES["p"]

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


#: Objects sharing the simple name ``t``, none inserted in name order.
#: ``A`` sorts first and its type string interns ``z.c::f::t`` ahead of
#: every other ``t`` in the string table, which orders the target section.
TWINS = ["z.c::f::t", "b.c::t", "a.c::g2::t", "a.c::g12::t"]


def _twins_unit() -> UnitIR:
    objects = {"A": ProgramObject(name="A", kind=ObjectKind.VARIABLE,
                                  type_str=TWINS[0])}
    for name in TWINS:
        objects[name] = ProgramObject(name=name, kind=ObjectKind.VARIABLE)
    return UnitIR(filename="twins.c", objects=objects, assignments=[
        PrimitiveAssignment(kind=PrimitiveKind.ADDR, dst=name, src="A")
        for name in TWINS
    ])


@pytest.mark.parametrize("kind", BACKENDS)
def test_find_targets_answers_sorted(kind, tmp_path):
    """Every backend names a simple name's definitions in one order, so
    a daemon serving a store from memory and one serving the written
    database resolve a name alike."""
    store = _backend(kind, _twins_unit(), tmp_path)
    try:
        assert store.find_targets("t") == sorted(TWINS)
        assert store.find_targets("A") == ["A"]
    finally:
        store.close()


def _flags_unit() -> UnitIR:
    """A function, a function pointer, a pointer and a non-pointer."""
    objects = {
        "f": ProgramObject(name="f", kind=ObjectKind.FUNCTION),
        "fp": ProgramObject(name="fp", kind=ObjectKind.VARIABLE,
                            type_str="void (*)(void)", is_funcptr=True),
        "p": ProgramObject(name="p", kind=ObjectKind.VARIABLE,
                           type_str="int *"),
        "n": ProgramObject(name="n", kind=ObjectKind.VARIABLE,
                           type_str="int", may_point=False),
    }
    return UnitIR(filename="flags.c", objects=objects, assignments=[
        PrimitiveAssignment(kind=PrimitiveKind.ADDR, dst="fp", src="f"),
        PrimitiveAssignment(kind=PrimitiveKind.ADDR, dst="p", src="n"),
        PrimitiveAssignment(kind=PrimitiveKind.COPY, dst="n", src="p"),
    ])


@pytest.mark.parametrize("kind", BACKENDS)
def test_object_flags_answer_alike(kind, tmp_path):
    """Every backend answers the solver's metadata questions alike, from
    one call."""
    store = _backend(kind, _flags_unit(), tmp_path)
    try:
        assert store.object_flags() == ObjectFlags(
            functions=frozenset({"f"}), funcptrs=frozenset({"fp"}),
            non_pointers=frozenset({"n"}),
        )
    finally:
        store.close()


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
