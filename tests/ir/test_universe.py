"""Tests for the interned integer object universe (the solver core's
id spaces and bitset helpers) and the id-row intake the non-demand
solvers read through, plus an end-to-end checker-oracle pass proving
every solver stays sound on top of it."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checker import check_result
from repro.cla.store import MemoryStore
from repro.ir.lower import UnitIR
from repro.ir.objects import ObjectKind, ProgramObject
from repro.ir.primitives import PrimitiveAssignment, PrimitiveKind
from repro.ir.universe import (
    WORD_BITS,
    ObjectUniverse,
    bits,
    bitset_words,
    mask_of,
)
from repro.solvers import SOLVERS, BaseSolver, PreTransitiveSolver
from repro.synth.kernels import diff_propagation_kernel

names = st.text(
    alphabet="abcxyz_$<>:.0123456789*",
    min_size=1,
    max_size=24,
)

id_sets = st.sets(st.integers(min_value=0, max_value=300), max_size=40)


# -- id spaces -------------------------------------------------------------


class TestNodeSpace:
    def test_ids_are_dense_and_first_seen_ordered(self):
        u = ObjectUniverse()
        assert u.intern("a") == 0
        assert u.intern("b") == 1
        assert u.intern("a") == 0  # re-intern is a lookup, not a new id
        assert len(u) == 2

    def test_name_round_trip(self):
        u = ObjectUniverse()
        for name in ["p", "*p", "a.c::f::x", "$sl1"]:
            assert u.name_of(u.intern(name)) == name

    def test_id_of_unseen_is_none(self):
        u = ObjectUniverse()
        assert u.id_of("ghost") is None
        u.intern("ghost")
        assert u.id_of("ghost") == 0
        assert "ghost" in u

    def test_fresh_temps_are_distinct_nodes(self):
        u = ObjectUniverse()
        t1, t2 = u.fresh_temp(), u.fresh_temp()
        assert t1 != t2
        assert u.name_of(t1).startswith("$sl")

    @settings(max_examples=100, deadline=None)
    @given(st.lists(names, max_size=30))
    def test_intern_round_trip_property(self, batch):
        """intern -> name_of is the identity, and re-interning any name
        gives back the same id (stability within a run)."""
        u = ObjectUniverse()
        first = {name: u.intern(name) for name in batch}
        for name, i in first.items():
            assert u.name_of(i) == name
            assert u.intern(name) == i
            assert u.id_of(name) == i
        # Dense: ids are exactly 0..len-1.
        assert sorted(set(first.values())) == list(range(len(u)))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(names, max_size=30))
    def test_target_space_round_trip_property(self, batch):
        u = ObjectUniverse()
        first = {name: u.target_id(name) for name in batch}
        for name, t in first.items():
            assert u.target_name(t) == name
            assert u.target_id(name) == t
            assert u.target_id_of(name) == t
        assert u.target_count == len(set(batch))

    def test_spaces_are_independent(self):
        """The same name can hold different ids in the two spaces — the
        target space is denser, so positions diverge immediately."""
        u = ObjectUniverse()
        u.intern("only_node")
        assert u.target_id("only_target") == 0
        assert u.intern("only_target") == 1
        assert u.target_id_of("only_node") is None


class TestFunctionMask:
    def test_note_before_and_after_target_creation(self):
        u = ObjectUniverse()
        f1 = u.target_id("f1")  # target first, noted later
        u.note_functions(["f1", "f2"])
        assert u.function_mask == 1 << f1
        f2 = u.target_id("f2")  # noted first, target later
        assert u.function_mask == (1 << f1) | (1 << f2)

    def test_note_is_idempotent(self):
        u = ObjectUniverse()
        u.note_functions(["f"])
        t = u.target_id("f")
        u.note_functions(["f"])
        assert u.function_mask == 1 << t


# -- bitset helpers vs frozenset algebra -----------------------------------


class TestBitsetAlgebra:
    @settings(max_examples=200, deadline=None)
    @given(id_sets, id_sets)
    def test_mask_ops_match_set_ops(self, a, b):
        """Every mask operation the solvers rely on agrees with the
        frozenset algebra it replaced."""
        ma, mb = mask_of(a), mask_of(b)
        assert set(bits(ma)) == a
        assert set(bits(ma | mb)) == a | b
        assert set(bits(ma & mb)) == a & b
        assert set(bits(ma & ~mb)) == a - b
        assert set(bits(ma ^ mb)) == a ^ b
        assert (ma | mb).bit_count() == len(a | b)
        # subset test, as used by difference propagation
        assert (ma & ~mb == 0) == a.issubset(b)

    @settings(max_examples=100, deadline=None)
    @given(id_sets)
    def test_round_trip(self, a):
        assert mask_of(bits(mask_of(a))) == mask_of(a)

    def test_bits_yields_lowest_first(self):
        assert list(bits(mask_of({9, 1, 4}))) == [1, 4, 9]
        assert list(bits(0)) == []

    def test_bitset_words(self):
        assert bitset_words(0) == 0
        assert bitset_words(1) == 1
        assert bitset_words(1 << (WORD_BITS - 1)) == 1
        assert bitset_words(1 << WORD_BITS) == 2

    def test_decode_caches_shared_frozensets(self):
        u = ObjectUniverse()
        names_ = [u.target_name(u.target_id(n)) for n in ("a", "b", "c")]
        mask = mask_of([0, 2])
        first = u.decode(mask)
        assert first == frozenset({names_[0], names_[2]})
        assert u.decode(mask) is first  # identical masks share one set
        assert u.decode(0) == frozenset()

    def test_decode_cache_is_bounded_lru(self):
        u = ObjectUniverse(decode_cache_entries=2)
        for n in ("a", "b", "c"):
            u.target_id(n)
        first = u.decode(mask_of([0]))
        assert u.decode(mask_of([1])) is not first
        # Touch the first entry so the *second* is the LRU victim.
        assert u.decode(mask_of([0])) is first
        u.decode(mask_of([2]))  # evicts mask_of([1])
        assert len(u._decode_cache) == 2
        assert mask_of([1]) not in u._decode_cache
        assert u.decode(mask_of([0])) is first  # survivor, still shared

    def test_decode_cache_counters(self):
        from repro.engine.obs import REGISTRY
        hits = REGISTRY.counter("solver.decode_cache.hits")
        misses = REGISTRY.counter("solver.decode_cache.misses")
        evictions = REGISTRY.counter("solver.decode_cache.evictions")
        h0, m0, e0 = hits.value, misses.value, evictions.value
        u = ObjectUniverse(decode_cache_entries=1)
        u.target_id("a")
        u.target_id("b")
        u.decode(mask_of([0]))                 # miss
        u.decode(mask_of([0]))                 # hit
        u.decode(mask_of([1]))                 # miss + eviction
        assert hits.value - h0 == 1
        assert misses.value - m0 == 2
        assert evictions.value - e0 == 1


# -- the id-row intake ------------------------------------------------------


def store_of(*rows, non_pointers=()):
    unit = UnitIR(filename="w.c")
    for kind, dst, src in rows:
        for name in (dst, src):
            unit.objects[name] = ProgramObject(
                name=name, kind=ObjectKind.VARIABLE,
                may_point=name not in non_pointers,
            )
        unit.assignments.append(
            PrimitiveAssignment(kind=kind, dst=dst, src=src)
        )
    return MemoryStore(unit)


class TestIngestAllIds:
    """``BaseSolver._ingest_all_ids``: every relevant row, as ids."""

    def test_addr_srcs_are_target_space(self):
        solver = BaseSolver(store_of(
            (PrimitiveKind.ADDR, "p", "x"),
            (PrimitiveKind.COPY, "q", "p"),
        ))
        u = solver.universe
        rows = list(solver._ingest_all_ids())
        assert len(rows) == 2
        kind, dst, src = rows[0]
        assert kind is PrimitiveKind.ADDR
        assert u.name_of(dst) == "p"
        assert u.target_name(src) == "x"  # target space, not node space
        assert u.id_of("x") is None  # ADDR did not intern a node for x
        assert u.name_of(u.target_node(src)) == "x"  # until one is needed
        assert u.target_node(src) == u.id_of("x")

    def test_yields_exactly_the_relevant_rows_in_order(self):
        solver = BaseSolver(store_of(
            (PrimitiveKind.COPY, "a", "b"),
            (PrimitiveKind.COPY, "n", "b"),  # dst cannot carry a pointer
            (PrimitiveKind.LOAD, "c", "a"),
            (PrimitiveKind.ADDR, "a", "n"),  # &n is a pointer all the same
            (PrimitiveKind.COPY, "c", "b"),
            non_pointers={"n"},
        ))
        u = solver.universe
        rows = [
            (kind, u.name_of(dst),
             u.target_name(src) if kind is PrimitiveKind.ADDR
             else u.name_of(src))
            for kind, dst, src in solver._ingest_all_ids()
        ]
        # a block is keyed by its rows' source
        assert list(solver.store.block_names()) == ["b", "a"]
        assert rows == [  # statics first, then each block in store order
            (PrimitiveKind.ADDR, "a", "n"),
            (PrimitiveKind.COPY, "a", "b"),
            (PrimitiveKind.COPY, "c", "b"),
            (PrimitiveKind.LOAD, "c", "a"),
        ]
        assert solver.store.stats.loaded == 5  # every row was read


# -- the oracle gate: every solver, on the shared integer core -------------


@pytest.mark.parametrize("solver_name", sorted(SOLVERS))
def test_all_solvers_sound_on_diff_propagation_ladder(solver_name):
    """Every solver produces a closed (and, for Andersen-precision
    solvers, minimal) model of the diff-propagation ladder when running
    on the interned bitset core."""
    store = diff_propagation_kernel(24)
    cls = SOLVERS[solver_name]
    if cls is PreTransitiveSolver:
        solver = cls(store, demand_load=False)  # the kernel's intended mode
    else:
        solver = cls(store)
    result = solver.solve()
    report = check_result(store, result,
                          check_minimal=cls.precision == "andersen")
    assert report.ok, report.render()
    # The ladder resolves fully: rung i reaches cell a_{i+1} (exactly so
    # under Andersen precision; unification may over-approximate).
    assert "a1" in result.points_to("x0")
    assert "a25" in result.points_to("x24")
    if cls.precision == "andersen":
        assert result.points_to("x0") == frozenset({"a1"})
        assert result.points_to("x24") == frozenset({"a25"})
    # Counters from the shared core are populated.
    assert result.stats.interned_objects > 0
    assert result.stats.interned_targets > 0
    assert result.stats.bitset_words > 0
