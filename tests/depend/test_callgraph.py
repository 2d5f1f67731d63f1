"""Tests for call-graph construction over call-site records."""

import pytest

from repro.cfront import parse_c
from repro.cla.store import MemoryStore
from repro.depend import build_call_graph
from repro.ir import lower_translation_unit
from repro.solvers import PreTransitiveSolver

SRC = """
int counter;
void leaf_a(void) { counter = 1; }
void leaf_b(void) { counter = 2; }
void (*handler)(void);
int pick;
void middle(void) {
    if (pick) handler = leaf_a; else handler = leaf_b;
    handler();
}
void top(void) {
    middle();
    leaf_b();
    leaf_b();
}
void orphan(void) { counter = 9; }
"""


@pytest.fixture(scope="module")
def graph():
    store = MemoryStore(
        lower_translation_unit(parse_c(SRC, filename="cg.c"))
    )
    points_to = PreTransitiveSolver(store).solve()
    return build_call_graph(store, points_to)


class TestEdges:
    def test_direct_edges(self, graph):
        assert graph.callees("top") == {"middle", "leaf_b"}

    def test_indirect_edges_resolved(self, graph):
        assert graph.callees("middle") == {"leaf_a", "leaf_b"}
        assert ("middle", "leaf_a") in graph.indirect
        assert ("middle", "leaf_b") in graph.indirect

    def test_direct_edges_not_marked_indirect(self, graph):
        assert ("top", "middle") not in graph.indirect

    def test_callers(self, graph):
        assert graph.callers("leaf_b") == {"top", "middle"}
        assert graph.callers("top") == frozenset()

    def test_orphan_has_no_edges(self, graph):
        assert graph.callees("orphan") == frozenset()
        assert graph.callers("orphan") == frozenset()

    def test_site_counts(self, graph):
        assert graph.site_counts[("top", "leaf_b")] == 2
        assert graph.site_counts[("top", "middle")] == 1

    def test_no_unresolved_pointers(self, graph):
        assert graph.unresolved_pointers == set()


class TestReachability:
    def test_reachable_from_top(self, graph):
        live = graph.reachable_from(["top"])
        assert live == {"top", "middle", "leaf_a", "leaf_b"}

    def test_dead_code_detection(self, graph):
        dead = graph.functions() - graph.reachable_from(["top"])
        assert dead == {"orphan"}

    def test_multiple_roots(self, graph):
        live = graph.reachable_from(["orphan", "middle"])
        assert live == {"orphan", "middle", "leaf_a", "leaf_b"}


class TestDot:
    def test_dot_structure(self, graph):
        dot = graph.to_dot()
        assert dot.startswith("digraph callgraph {")
        assert '"top" -> "middle";' in dot
        assert 'style=dashed' in dot

    def test_dot_cap(self, graph):
        dot = graph.to_dot(max_nodes=2)
        assert "omitted" in dot


class TestEdgeCases:
    def run(self, src, filename="t.c"):
        store = MemoryStore(
            lower_translation_unit(parse_c(src, filename=filename))
        )
        return build_call_graph(store, PreTransitiveSolver(store).solve())

    def test_argless_void_call_still_recorded(self):
        # No value flows at all — only the call-site record sees this.
        g = self.run("""
        void callee(void) { }
        void caller(void) { callee(); }
        """)
        assert g.callees("caller") == {"callee"}

    def test_constant_arg_call_recorded(self):
        g = self.run("""
        int sink(int v) { return v; }
        void caller(void) { sink(42); }
        """)
        assert g.callees("caller") == {"sink"}

    def test_recursive_call(self):
        g = self.run("""
        int fact(int n) { if (n) return n * fact(n - 1); return 1; }
        """)
        assert g.callees("fact") == {"fact"}

    def test_unresolved_pointer_reported(self):
        g = self.run("""
        void (*never_set)(void);
        void caller(void) { never_set(); }
        """)
        assert "never_set" in g.unresolved_pointers
        assert g.callees("caller") == frozenset()

    def test_toplevel_initializer_call(self):
        g = self.run("""
        int make(void) { return 7; }
        int value = make();
        """, filename="init.c")
        assert g.callees("init.c::<toplevel>") == {"make"}

    def test_allocator_calls_recorded(self):
        g = self.run("""
        #include <stdlib.h>
        char *grab(void) { return malloc(8); }
        """)
        assert "malloc" in g.callees("grab")

    def test_static_function_canonical_names(self):
        g = self.run("""
        static void helper(void) { }
        void api(void) { helper(); }
        """, filename="s.c")
        assert g.callees("api") == {"s.c::helper"}

    def test_survives_object_file_round_trip(self, tmp_path):
        from repro.cla.reader import DatabaseStore
        from repro.cla.writer import write_unit
        from repro.cla.linker import link_object_files

        unit = lower_translation_unit(parse_c(SRC, filename="cg.c"))
        obj = str(tmp_path / "cg.o")
        write_unit(unit, obj)
        out = str(tmp_path / "cg.cla")
        link_object_files([obj], out)
        store = DatabaseStore.open(out)
        try:
            points_to = PreTransitiveSolver(store).solve()
            g = build_call_graph(store, points_to)
            assert g.callees("top") == {"middle", "leaf_b"}
            assert g.callees("middle") == {"leaf_a", "leaf_b"}
        finally:
            store.close()

    def test_survives_transform_round_trip(self):
        unit = lower_translation_unit(parse_c(SRC, filename="cg.c"))
        store = MemoryStore(MemoryStore(unit).to_unit())
        g = build_call_graph(store, PreTransitiveSolver(store).solve())
        assert g.callees("top") == {"middle", "leaf_b"}
