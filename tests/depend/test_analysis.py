"""Tests for the forward dependence analysis (paper §2, Figure 1)."""

from repro.cfront import parse_c
from repro.cla.store import MemoryStore
from repro.depend import (
    DependenceAnalysis,
    render_all,
    render_chain,
    summarize,
)
from repro.engine.pipeline import Pipeline
from repro.ir import Strength, lower_translation_unit
from repro.solvers import PreTransitiveSolver


def setup(src, filename="t.c", field_based=True):
    store = MemoryStore(
        lower_translation_unit(parse_c(src, filename=filename),
                               field_based=field_based)
    )
    points_to = PreTransitiveSolver(store).solve()
    return store, points_to


def dependents_of(src, target, filename="t.c", non_targets=()):
    store, points_to = setup(src, filename)
    result = Pipeline().depend(store, points_to, target, non_targets)
    return {
        name.rsplit("::", 1)[-1]
        for name, d in result.dependents.items()
        if d.parent is not None
    }, result, store


class TestSection2Example:
    SRC = """
    void g(void) {
      short x, y, z, *p, v, w, z1;
      y = x;
      z = y+1;
      p = &v;
      *p = z;
      w = 1;
      z1 = !y;
    }
    """

    def test_dependent_set(self):
        deps, _, _ = dependents_of(self.SRC, "x")
        # Paper: "we may also have to change the types of y, z, v ...
        # but we do not need to change the type of w."
        assert deps == {"y", "z", "v"}

    def test_not_operator_blocks_dependence(self):
        deps, _, _ = dependents_of(self.SRC, "x")
        assert "z1" not in deps  # z1 = !y: "changing the type of y has no
        # effect on the range of values of z1"

    def test_chain_strengths(self):
        _, result, _ = dependents_of(self.SRC, "x")
        by_short = {
            n.rsplit("::", 1)[-1]: d for n, d in result.dependents.items()
        }
        assert by_short["y"].strength is Strength.DIRECT
        assert by_short["z"].strength is Strength.STRONG  # via y+1
        assert by_short["v"].strength is Strength.STRONG  # *p = z after +


class TestFigure1:
    SRC = """short target;
struct S { short x; short y; };
short u, *v, w;
struct S s, t;
void f(void) {
  v = &w;
  u = target;
  *v = u;
  s.x = w;
}
"""

    def test_figure1_dependents(self):
        deps, _, _ = dependents_of(self.SRC, "target", filename="eg1.c")
        # Paper: "u, w and s.x are all dependent objects".
        assert deps == {"u", "w", "S.x"}

    def test_t_x_shares_field_object(self):
        # Field-based: "it is desirable to treat objects that refer to the
        # same field in a uniform way" — S.x covers both s.x and t.x.
        _, result, store = dependents_of(self.SRC, "target",
                                         filename="eg1.c")
        assert result.is_dependent("S.x")

    def test_chain_rendering_shape(self):
        _, result, store = dependents_of(self.SRC, "target",
                                         filename="eg1.c")
        line = render_chain(store, result, "w")
        # Figure 1 shape: dependent first with declaration site, steps with
        # assignment sites, 'where' clause with the target's declaration.
        assert line.startswith("w/short <eg1.c:3>")
        assert "u/short <eg1.c:8>" in line
        assert "target/short <eg1.c:7>" in line
        assert line.endswith("where target/short <eg1.c:1>")

    def test_sx_chain_full(self):
        _, result, store = dependents_of(self.SRC, "target",
                                         filename="eg1.c")
        line = render_chain(store, result, "S.x")
        assert "S.x/short" in line
        assert "w/short <eg1.c:9>" in line

    def test_render_all_ordering(self):
        _, result, store = dependents_of(self.SRC, "target",
                                         filename="eg1.c")
        lines = render_all(store, result)
        # Shorter chains first within equal strength.
        assert lines[0].startswith("u/")
        assert len(lines) == 3

    def test_summary(self):
        _, result, _ = dependents_of(self.SRC, "target", filename="eg1.c")
        assert summarize(result) == {"direct": 3, "strong": 0, "weak": 0,
                                     "none": 0}

    def test_summary_handles_strength_none(self):
        """Regression: a dependent carrying ``Strength.NONE`` used to
        KeyError the summary (counts had no "none" bucket)."""
        from repro.depend.analysis import Dependent, DependenceResult

        result = DependenceResult(targets=["t"], non_targets=frozenset())
        result.dependents["t"] = Dependent(
            name="t", strength=Strength.DIRECT, distance=0, parent=None,
            via=None)
        result.dependents["x"] = Dependent(
            name="x", strength=Strength.NONE, distance=1, parent="t",
            via=None)
        assert summarize(result) == {"direct": 0, "strong": 0, "weak": 0,
                                     "none": 1}


class TestBestChainSelection:
    def test_importance_beats_length(self):
        # Two paths to d: short one through a weak op, long direct one.
        src = """
        void f(void) {
            short t2, a, b, c, d;
            d = t2 * 3;           /* short path, weak */
            a = t2; b = a; c = b; d = c;  /* long path, direct */
        }
        """
        _, result, store = dependents_of(src, "t2")
        d = [v for k, v in result.dependents.items()
             if k.endswith("::d")][0]
        assert d.strength is Strength.DIRECT
        assert d.distance == 4

    def test_shortest_among_equal_importance(self):
        src = """
        void f(void) {
            short t2, a, b, direct;
            a = t2; b = a; direct = b;
            direct = t2;
        }
        """
        _, result, _ = dependents_of(src, "t2")
        d = [v for k, v in result.dependents.items()
             if k.endswith("::direct")][0]
        assert d.distance == 1

    def test_weak_chain_reported_weak(self):
        src = "void f(void) { short t2, a, b; a = t2 >> 2; b = a; }"
        _, result, _ = dependents_of(src, "t2")
        b = [v for k, v in result.dependents.items()
             if k.endswith("::b")][0]
        assert b.strength is Strength.WEAK

    def test_prioritized_order(self):
        src = """
        void f(void) {
            short t2, s, w2, d;
            d = t2;
            s = t2 + 1;
            w2 = t2 * 2;
        }
        """
        _, result, _ = dependents_of(src, "t2")
        order = [d.name.rsplit("::")[-1] for d in result.prioritized()]
        assert order == ["d", "s", "w2"]


class TestPointerFlows:
    def test_store_reaches_pointees(self):
        deps, _, _ = dependents_of("""
        void f(void) {
            short t2, v, *p;
            p = &v;
            *p = t2;
        }
        """, "t2")
        assert "v" in deps

    def test_load_from_pointee(self):
        deps, _, _ = dependents_of("""
        void f(void) {
            short t2, v, *p, out;
            p = &v;
            v = t2;
            out = *p;
        }
        """, "t2")
        assert "out" in deps

    def test_no_flow_without_aliasing(self):
        deps, _, _ = dependents_of("""
        void f(void) {
            short t2, v, other, *p;
            p = &other;
            v = t2;
            other = *p;   /* p never points to v */
        }
        """, "t2")
        assert "other" not in deps

    def test_store_load_transfers(self):
        deps, _, _ = dependents_of("""
        void f(void) {
            short t2, a, b, *pa, *pb;
            pa = &a; pb = &b;
            a = t2;
            *pb = *pa;
        }
        """, "t2")
        assert "b" in deps


class TestNonTargets:
    SRC = """
    void f(void) {
        short t2, hub, a, b;
        hub = t2;
        a = hub;
        b = a;
    }
    """

    def test_non_target_cuts_propagation(self):
        store, points_to = setup(self.SRC)
        targets = store.find_targets("t2")
        analysis = DependenceAnalysis(store, points_to)
        hub = store.find_targets("hub")[0]
        result = analysis.analyze(targets, frozenset([hub]))
        names = {n.rsplit("::")[-1] for n, d in result.dependents.items()
                 if d.parent is not None}
        assert names == set()  # everything flowed through hub

    def test_without_non_target_everything_depends(self):
        deps, _, _ = dependents_of(self.SRC, "t2")
        assert deps == {"hub", "a", "b"}


class TestApiDetails:
    def test_multiple_targets_same_name(self):
        src = """
        void f(void) { short n, a; a = n; }
        void g(void) { short n, b; b = n; }
        """
        store, points_to = setup(src)
        result = Pipeline().depend(store, points_to, "n")
        deps = {n.rsplit("::")[-1] for n, d in result.dependents.items()
                if d.parent is not None}
        assert deps == {"a", "b"}

    def test_chain_of_unknown_object(self):
        store, points_to = setup("short t2; void f(void) { t2 = 0; }")
        result = Pipeline().depend(store, points_to, "t2")
        assert render_chain(store, result, "ghost") == "ghost: not dependent"

    def test_target_itself_renders_bare(self):
        store, points_to = setup("short t2; void f(void) { t2 = 0; }")
        result = Pipeline().depend(store, points_to, "t2")
        line = render_chain(store, result, "t2")
        assert line.startswith("t2/short")
        assert "where" not in line

    def test_temporaries_spliced_out_of_chains(self):
        # *v = u + 1 introduces a temp; chains must skip it.
        src = """
        void f(void) {
            short t2, w, *v;
            v = &w;
            *v = t2 + 1;
        }
        """
        store, points_to = setup(src)
        result = Pipeline().depend(store, points_to, "t2")
        for dep in result.dependents.values():
            assert "$t" not in dep.name

    def test_dependence_through_call(self):
        src = """
        short widen(short v) { return v; }
        void f(void) { short t2, out; out = widen(t2); }
        """
        deps, _, _ = dependents_of(src, "t2")
        assert "out" in deps
        assert "widen$ret" in deps


class TestMinStrengthFilter:
    SRC = """
    void f(void) {
        short t2, d, s, w2, onward;
        d = t2;
        s = t2 + 1;
        w2 = t2 * 2;
        onward = w2;     /* only reachable through a weak edge */
    }
    """

    def names(self, result):
        return {n.rsplit("::")[-1] for n, dep in result.dependents.items()
                if dep.parent is not None}

    def test_default_keeps_weak(self):
        store, points_to = setup(self.SRC)
        result = Pipeline().depend(store, points_to, "t2")
        assert self.names(result) == {"d", "s", "w2", "onward"}

    def test_strong_threshold_drops_weak_chains(self):
        store, points_to = setup(self.SRC)
        result = Pipeline().depend(store, points_to, "t2",
                                   min_strength=Strength.STRONG)
        assert self.names(result) == {"d", "s"}

    def test_direct_threshold(self):
        store, points_to = setup(self.SRC)
        result = Pipeline().depend(store, points_to, "t2",
                                   min_strength=Strength.DIRECT)
        assert self.names(result) == {"d"}

    def test_weak_edge_blocks_downstream_direct(self):
        # 'onward = w2' is direct, but its only path crosses a weak edge:
        # with a strong threshold it must disappear too.
        store, points_to = setup(self.SRC)
        result = Pipeline().depend(store, points_to, "t2",
                                   min_strength=Strength.STRONG)
        assert "onward" not in self.names(result)
