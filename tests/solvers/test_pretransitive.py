"""Tests for the pre-transitive graph algorithm (paper §5, Figure 5)."""

from repro.cfront import parse_c
from repro.cla.store import MemoryStore
from repro.ir import lower_translation_unit
from repro.solvers.pretransitive import PreTransitiveSolver


def solve(src, filename="t.c", field_based=True, **solver_kwargs):
    store = MemoryStore(
        lower_translation_unit(parse_c(src, filename=filename),
                               field_based=field_based)
    )
    solver = PreTransitiveSolver(store, **solver_kwargs)
    return solver, solver.solve()


class TestPaperExamples:
    def test_figure3_derivation(self):
        # z = &y; *z = &x  |-  y -> &x
        _, r = solve("""
        int x, *y; int **z;
        void f(void) { z = &y; *z = &x; }
        """)
        assert r.points_to("z") == {"y"}
        assert r.points_to("y") == {"x"}

    def test_section3_field_based_example(self):
        _, r = solve("""
        struct S { int *x; int *y; } A, B;
        int z;
        int main2() {
          int *p, *q, *r, *s;
          A.x = &z; p = A.x; q = A.y; r = B.x; s = B.y;
          return 0;
        }
        """, filename="fb.c")
        assert r.points_to("fb.c::main2::p") == {"z"}
        assert r.points_to("fb.c::main2::q") == frozenset()
        assert r.points_to("fb.c::main2::r") == {"z"}
        assert r.points_to("fb.c::main2::s") == frozenset()

    def test_section3_field_independent_example(self):
        _, r = solve("""
        struct S { int *x; int *y; } A, B;
        int z;
        int main2() {
          int *p, *q, *r, *s;
          A.x = &z; p = A.x; q = A.y; r = B.x; s = B.y;
          return 0;
        }
        """, filename="fi.c", field_based=False)
        assert r.points_to("fi.c::main2::p") == {"z"}
        assert r.points_to("fi.c::main2::q") == {"z"}
        assert r.points_to("fi.c::main2::r") == frozenset()
        assert r.points_to("fi.c::main2::s") == frozenset()

    def test_store_through_pointer(self):
        _, r = solve("""
        short x, y, *p;
        void f(void) { p = &x; *p = y; }
        """)
        assert r.points_to("p") == {"x"}

    def test_load_through_pointer(self):
        _, r = solve("""
        int a, *p, *q, **pp;
        void f(void) { p = &a; pp = &p; q = *pp; }
        """)
        assert r.points_to("q") == {"a"}

    def test_store_load_split(self):
        _, r = solve("""
        int a, *p, **pp, **qq, *q;
        void f(void) {
            p = &a; qq = &p;
            *pp = *qq;
            pp = &q;
            *pp = *qq;
        }
        """)
        assert r.points_to("q") == {"a"}


class TestCycles:
    def test_simple_cycle_unified(self):
        s, r = solve("""
        int *a, *b, *c, x;
        void f(void) { a = b; b = c; c = a; a = &x; }
        """)
        assert r.points_to("a") == r.points_to("b") == r.points_to("c") == {"x"}
        assert s.stats.cycles_collapsed >= 2

    def test_self_loop(self):
        _, r = solve("int *a, x; void f(void) { a = a; a = &x; }")
        assert r.points_to("a") == {"x"}

    def test_two_cycles_bridged(self):
        s, r = solve("""
        int *a, *b, *c, *d, x, y;
        void f(void) {
            a = b; b = a;      /* cycle 1 */
            c = d; d = c;      /* cycle 2 */
            b = c;             /* bridge  */
            d = &y; a = &x;
        }
        """)
        assert r.points_to("a") == {"x", "y"}
        assert r.points_to("b") == {"y"} or r.points_to("b") == {"x", "y"}
        # a,b unified; c,d unified; flow a->c preserved
        assert r.points_to("c") == {"y"}

    def test_cycle_through_complex_assignment(self):
        # *p = q and q = *p create a dynamic cycle once p's target is known.
        _, r = solve("""
        int *a, *q, **p, x;
        void f(void) {
            p = &a;
            *p = q;
            q = *p;
            q = &x;
        }
        """)
        assert r.points_to("a") == {"x"}
        assert r.points_to("q") == {"x"}

    def test_long_chain_no_recursion_error(self):
        # 5000-deep copy chain: iterative traversal must not blow the stack.
        n = 5000
        decls = "int x; " + " ".join(f"int *v{i};" for i in range(n))
        body = " ".join(f"v{i} = v{i + 1};" for i in range(n - 1))
        src = f"{decls} void f(void) {{ {body} v{n - 1} = &x; }}"
        _, r = solve(src)
        assert r.points_to("v0") == {"x"}

    def test_large_cycle_collapses(self):
        n = 2000
        decls = "int x; " + " ".join(f"int *v{i};" for i in range(n))
        body = " ".join(f"v{i} = v{(i + 1) % n};" for i in range(n))
        src = f"{src_prefix()}{decls} void f(void) {{ {body} v0 = &x; }}"
        s, r = solve(src)
        assert r.points_to(f"v{n // 2}") == {"x"}
        assert s.stats.cycles_collapsed >= n - 1


def src_prefix():
    return ""


class TestOptimizationToggles:
    SRC = """
    int x, y, *a, *b, *c, **pp;
    void f(void) {
        a = &x; b = a; c = b; a = c;   /* cycle with lvals */
        pp = &a; *pp = &y;
        b = *pp;
    }
    """

    def expected(self):
        _, r = solve(self.SRC)
        return {k: v for k, v in r.pts.items()}

    def test_all_toggle_combinations_agree(self):
        expected = self.expected()
        for cache in (True, False):
            for cycles in (True, False):
                _, r = solve(self.SRC, enable_cache=cache,
                             enable_cycle_elimination=cycles)
                for name, targets in expected.items():
                    assert r.points_to(name) == targets, (cache, cycles, name)

    def test_no_cycle_elim_never_unifies(self):
        s, _ = solve(self.SRC, enable_cycle_elimination=False)
        assert s.stats.cycles_collapsed == 0

    def test_demand_vs_full_loading_agree(self):
        expected = self.expected()
        _, r = solve(self.SRC, demand_load=False)
        for name, targets in expected.items():
            assert r.points_to(name) == targets


class TestDemandLoading:
    def test_irrelevant_blocks_not_loaded(self):
        src = """
        int x, *p;
        int a, b, c, d;
        void f(void) {
            p = &x;
            a = b; b = c; c = d;   /* pure int chain: never loaded */
        }
        """
        store = MemoryStore(lower_translation_unit(parse_c(src)))
        PreTransitiveSolver(store).solve()
        assert store.stats.loaded < store.stats.in_file

    def test_full_load_touches_everything(self):
        src = """
        int x, *p; int a, b;
        void f(void) { p = &x; a = b; }
        """
        store = MemoryStore(lower_translation_unit(parse_c(src)))
        PreTransitiveSolver(store, demand_load=False).solve()
        assert store.stats.loaded == store.stats.in_file

    def test_discard_keeps_only_complex(self):
        src = """
        int x, *p, *q, **pp;
        void f(void) { p = &x; q = p; pp = &p; q = *pp; }
        """
        store = MemoryStore(lower_translation_unit(parse_c(src)))
        solver = PreTransitiveSolver(store)
        solver.solve()
        assert store.stats.in_core == len(solver._complex)


class TestGetLvals:
    def test_public_query(self):
        s, _ = solve("int x, *p; void f(void) { p = &x; }")
        assert s.get_lvals("p") == {"x"}

    def test_query_unknown_node(self):
        s, _ = solve("int x;")
        assert s.get_lvals("ghost") == frozenset()

    def test_metrics_populated(self):
        s, _ = solve("""
        int x, *p, *q, **pp;
        void f(void) { p = &x; q = p; pp = &p; *pp = q; }
        """)
        assert s.stats.rounds >= 1
        assert s.stats.edges_added >= 2
        assert s.stats.lval_queries > 0


class TestPrecision:
    def test_no_spurious_aliasing(self):
        _, r = solve("""
        int x, y, *p, *q;
        void f(void) { p = &x; q = &y; }
        """)
        assert r.points_to("p") == {"x"}
        assert r.points_to("q") == {"y"}
        assert not r.may_alias("p", "q")

    def test_may_alias_through_copy(self):
        _, r = solve("""
        int x, *p, *q;
        void f(void) { p = &x; q = p; }
        """)
        assert r.may_alias("p", "q")

    def test_flow_insensitivity(self):
        # Assignment order is irrelevant: q = p before p = &x still flows.
        _, r = solve("""
        int x, *p, *q;
        void f(void) { q = p; p = &x; }
        """)
        assert r.points_to("q") == {"x"}

    def test_context_insensitivity_merges_call_sites(self):
        # One id() function called with two different pointers: both
        # callers see both targets (the classic join-point effect, §5).
        _, r = solve("""
        int x, y;
        int *id2(int *p) { return p; }
        int *a, *b;
        void f(void) { a = id2(&x); b = id2(&y); }
        """)
        assert r.points_to("a") == {"x", "y"}
        assert r.points_to("b") == {"x", "y"}
