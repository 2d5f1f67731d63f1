"""White-box tests of the pre-transitive solver's §5 mechanisms:
skip-pointer unification, edge deduplication, lval-set interning, the
per-round cache, and the metrics counters the benches rely on."""

from repro.cla.store import MemoryStore
from repro.ir.lower import UnitIR
from repro.ir.objects import ObjectKind, ProgramObject
from repro.ir.primitives import PrimitiveAssignment, PrimitiveKind
from repro.solvers.pretransitive import PreTransitiveSolver


def store_of(*assignments):
    unit = UnitIR(filename="w.c")
    names = set()
    for kind, dst, src in assignments:
        names.add(dst)
        names.add(src)
        unit.assignments.append(
            PrimitiveAssignment(kind=kind, dst=dst, src=src)
        )
    for name in names:
        unit.objects[name] = ProgramObject(name=name,
                                           kind=ObjectKind.VARIABLE)
    return MemoryStore(unit)


K = PrimitiveKind


class TestSkipPointers:
    def test_unified_nodes_share_representative(self):
        s = PreTransitiveSolver(store_of(
            (K.COPY, "a", "b"), (K.COPY, "b", "a"), (K.ADDR, "a", "t"),
        ))
        s.solve()
        a = s._find(s._nodes["a"])
        b = s._find(s._nodes["b"])
        assert a is b

    def test_skip_chain_compresses(self):
        s = PreTransitiveSolver(store_of(
            (K.COPY, "a", "b"), (K.COPY, "b", "c"), (K.COPY, "c", "d"),
            (K.COPY, "d", "a"), (K.ADDR, "a", "t"),
        ))
        s.solve()
        rep = s._find(s._nodes["a"])
        for name in ("b", "c", "d"):
            node = s._nodes[name]
            assert s._find(node) is rep
            # Path compression: after a find, the skip points directly at
            # the representative.
            assert node.skip is rep or node is rep

    def test_unified_base_elements_merge(self):
        s = PreTransitiveSolver(store_of(
            (K.ADDR, "a", "x"), (K.ADDR, "b", "y"),
            (K.COPY, "a", "b"), (K.COPY, "b", "a"),
        ))
        result = s.solve()
        assert result.points_to("a") == {"x", "y"}
        assert result.points_to("b") == {"x", "y"}


class TestEdgeBookkeeping:
    def test_duplicate_edges_not_double_counted(self):
        s = PreTransitiveSolver(store_of(
            (K.COPY, "a", "b"),
            (K.COPY, "a", "b"),
            (K.ADDR, "b", "t"),
        ))
        s.solve()
        assert s.stats.edges_added == 1

    def test_self_edges_rejected(self):
        s = PreTransitiveSolver(store_of(
            (K.COPY, "a", "a"), (K.ADDR, "a", "t"),
        ))
        s.solve()
        node = s._find(s._nodes["a"])
        assert node not in node.succ

    def test_complex_constraints_deduplicated(self):
        s = PreTransitiveSolver(store_of(
            (K.LOAD, "x", "p"),
            (K.LOAD, "x", "p"),
            (K.ADDR, "p", "a"),
        ))
        s.solve()
        assert ("load", "x", "p") in s._complex_keys
        assert len(s._complex) == 1


class TestDifferencePropagation:
    SYSTEM = (
        (K.LOAD, "x", "p"),
        (K.ADDR, "p", "a"),
        (K.ADDR, "p", "b"),
        (K.STORE, "p", "y"),
        (K.ADDR, "y", "t"),
    )

    def test_seen_sets_record_processed_lvals(self):
        s = PreTransitiveSolver(store_of(*self.SYSTEM))
        s.solve()
        # Every complex constraint's seen mask holds the lval ids it has
        # turned into edges: here pts(p) = {a, b} for both constraints.
        for entry in s._complex:
            assert entry[3].bit_count() == 2

    def test_second_round_skips_processed_pairs(self):
        s = PreTransitiveSolver(store_of(*self.SYSTEM))
        s.solve()
        assert s.stats.lvals_skipped_by_diff > 0
        processed = s.stats.delta_lvals_processed
        # Each (constraint, lval) pair was processed exactly once.
        assert processed == sum(e[3].bit_count() for e in s._complex)

    def test_disabled_reprocesses_every_round(self):
        on = PreTransitiveSolver(store_of(*self.SYSTEM))
        on.solve()
        off = PreTransitiveSolver(store_of(*self.SYSTEM),
                                  enable_diff_propagation=False)
        off.solve()
        assert off.stats.lvals_skipped_by_diff == 0
        assert off.stats.delta_lvals_processed > (
            on.stats.delta_lvals_processed
        )
        # Seen masks stay empty when the discipline is off.
        assert all(not e[3] for e in off._complex)


class TestLvalInterning:
    def test_identical_sets_shared_within_round(self):
        s = PreTransitiveSolver(store_of(
            (K.ADDR, "a", "t"), (K.COPY, "b", "a"), (K.COPY, "c", "a"),
        ))
        s.solve()
        # Final pass computed lvals for b and c; both equal {t} and must be
        # the same interned mask object.
        lb = s._find(s._nodes["b"]).cache
        lc = s._find(s._nodes["c"]).cache
        assert lb == lc
        assert lb is lc

    def test_interning_flushed_between_rounds(self):
        s = PreTransitiveSolver(store_of(
            (K.ADDR, "p", "a"), (K.STORE, "p", "q"), (K.ADDR, "q", "b"),
        ))
        s.solve()
        # After solve the intern table holds only the final round's masks.
        assert all(isinstance(k, int) for k in s._lval_interning)


class TestCacheSemantics:
    def test_cache_hit_within_round(self):
        s = PreTransitiveSolver(store_of(
            (K.ADDR, "p", "a"),
            (K.STORE, "p", "x"),
            (K.STORE, "p", "y"),  # second store re-queries getLvals(p)
        ))
        s.solve()
        # Both stores query p each round; with caching the second query
        # each round is a hit, so traversal work stays small.
        assert s.stats.lval_queries > s.stats.nodes_visited / 4

    def test_cache_disabled_recomputes(self):
        chain = [(K.COPY, f"q{i}", f"q{i + 1}") for i in range(10)]
        stores = [(K.STORE, "p", f"y{i}") for i in range(6)]
        addr_ys = [(K.ADDR, f"y{i}", f"t{i}") for i in range(6)]

        def run(cache):
            s = PreTransitiveSolver(
                store_of(
                    (K.ADDR, "p", "a"),
                    (K.COPY, "p", "q0"),
                    *chain, *stores, *addr_ys,
                ),
                enable_cache=cache,
            )
            s.solve()
            return s.stats.nodes_visited

        assert run(False) > run(True)

    def test_new_edge_invalidates_source_cache(self):
        s = PreTransitiveSolver(store_of((K.ADDR, "a", "t")))
        s.solve()
        node = s._find(s._nodes["a"])
        token_before = node.cache_token
        assert token_before != 0
        # A post-solve edge addition must reset the cache token.
        s._uid += 1
        from repro.solvers.pretransitive import _Node

        other = _Node(s._uid, "fresh")
        s._add_edge(node, other)
        assert node.cache_token == 0


class TestMetrics:
    def test_rounds_counted(self):
        s = PreTransitiveSolver(store_of(
            (K.ADDR, "p", "a"), (K.STORE, "p", "q"), (K.ADDR, "q", "b"),
            (K.LOAD, "r", "a"),
        ))
        s.solve()
        assert s.stats.rounds >= 2  # store adds an edge -> extra round

    def test_constraints_equal_retained(self):
        store = store_of(
            (K.LOAD, "x", "p"), (K.STORE, "p", "y"),
            (K.STORE_LOAD, "p", "q"), (K.ADDR, "p", "a"),
            (K.ADDR, "q", "b"),
        )
        s = PreTransitiveSolver(store)
        s.solve()
        # STORE_LOAD splits into two constraints (+1 for the LOAD); the
        # STORE *p = y is never loaded at all — its trigger y carries no
        # pointer flow, so demand loading correctly skips its block.
        assert s.stats.constraints == 3
        assert store.stats.in_core == 3

    def test_funcptr_links_counted(self):
        from repro.cfront import parse_c
        from repro.ir import lower_translation_unit

        unit = lower_translation_unit(parse_c("""
        int g2;
        int *geta(void) { return &g2; }
        int *(*fp)(void);
        int *r;
        void f(void) { fp = geta; r = fp(); }
        """, filename="m.c"))
        s = PreTransitiveSolver(MemoryStore(unit))
        s.solve()
        assert s.stats.funcptr_links >= 1
