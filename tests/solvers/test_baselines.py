"""Tests for the baseline solvers (transitive, Steensgaard) and the
shared bit-vector helpers they run on."""

import pytest

from repro.cfront import parse_c
from repro.cla.store import MemoryStore
from repro.ir import lower_translation_unit
from repro.ir.lower import UnitIR
from repro.ir.objects import ObjectKind, ProgramObject
from repro.ir.primitives import PrimitiveAssignment, PrimitiveKind
from repro.ir.universe import bits
from repro.solvers import (
    PreTransitiveSolver,
    SteensgaardSolver,
    TransitiveSolver,
)

ANDERSEN_SOLVERS = [PreTransitiveSolver, TransitiveSolver]


def run(solver_cls, src, filename="t.c", field_based=True):
    store = MemoryStore(
        lower_translation_unit(parse_c(src, filename=filename),
                               field_based=field_based)
    )
    return solver_cls(store).solve()


class TestBitsHelper:
    def test_empty(self):
        assert list(bits(0)) == []

    def test_single(self):
        assert list(bits(1 << 7)) == [7]

    def test_multiple(self):
        assert sorted(bits(0b1011)) == [0, 1, 3]

    def test_large(self):
        mask = (1 << 100) | (1 << 3)
        assert sorted(bits(mask)) == [3, 100]


@pytest.mark.parametrize("solver_cls", ANDERSEN_SOLVERS,
                         ids=lambda c: c.name)
class TestAndersenSemantics:
    """Every Andersen solver must produce identical subset-based results."""

    def test_base(self, solver_cls):
        r = run(solver_cls, "int x, *p; void f(void) { p = &x; }")
        assert r.points_to("p") == {"x"}

    def test_copy_chain(self, solver_cls):
        r = run(solver_cls, """
        int x, *a, *b, *c;
        void f(void) { a = &x; b = a; c = b; }
        """)
        assert r.points_to("c") == {"x"}

    def test_copy_is_directional(self, solver_cls):
        r = run(solver_cls, """
        int x, y, *p, *q;
        void f(void) { p = &x; q = &y; q = p; }
        """)
        assert r.points_to("q") == {"x", "y"}
        assert r.points_to("p") == {"x"}  # no backwards flow

    def test_store(self, solver_cls):
        r = run(solver_cls, """
        int x, *p, **pp, *q;
        void f(void) { pp = &p; q = &x; *pp = q; }
        """)
        assert r.points_to("p") == {"x"}

    def test_load(self, solver_cls):
        r = run(solver_cls, """
        int x, *p, **pp, *q;
        void f(void) { p = &x; pp = &p; q = *pp; }
        """)
        assert r.points_to("q") == {"x"}

    def test_store_load(self, solver_cls):
        r = run(solver_cls, """
        int x, *p, *q, **pp, **qq;
        void f(void) { p = &x; qq = &p; pp = &q; *pp = *qq; }
        """)
        assert r.points_to("q") == {"x"}

    def test_cycle(self, solver_cls):
        r = run(solver_cls, """
        int x, *a, *b;
        void f(void) { a = b; b = a; a = &x; }
        """)
        assert r.points_to("a") == {"x"}
        assert r.points_to("b") == {"x"}

    def test_function_pointers(self, solver_cls):
        r = run(solver_cls, """
        int gx, gy;
        int *getx(void) { return &gx; }
        int *gety(void) { return &gy; }
        int *(*fp)(void);
        int c, *out;
        void f(void) {
            if (c) fp = getx; else fp = gety;
            out = fp();
        }
        """, filename="fp.c")
        assert r.points_to("fp") == {"getx", "gety"}
        assert r.points_to("out") == {"gx", "gy"}

    def test_funcptr_args_flow(self, solver_cls):
        r = run(solver_cls, """
        int g2;
        void sink(int *p) { int *local; local = p; }
        void (*cb)(int *);
        void f(void) { cb = sink; cb(&g2); }
        """, filename="cb.c")
        assert r.points_to("cb.c::sink::local") == {"g2"}

    def test_transitive_funcptr_discovery(self, solver_cls):
        # A function address reaches fp only through another indirect call.
        r = run(solver_cls, """
        int g2;
        int *leaf(void) { return &g2; }
        int *(*fp)(void);
        int *(*holder(void))(void) { return leaf; }
        int *(*(*get)(void))(void);
        int *out;
        void f(void) {
            get = holder;
            fp = get();
            out = fp();
        }
        """, filename="d.c")
        assert r.points_to("fp") == {"leaf"}
        assert r.points_to("out") == {"g2"}

    def test_malloc_sites_distinct(self, solver_cls):
        r = run(solver_cls, """
        #include <stdlib.h>
        char *p, *q;
        void f(void) {
            p = malloc(4);
            q = malloc(4);
        }
        """, filename="m.c")
        assert len(r.points_to("p")) == 1
        assert len(r.points_to("q")) == 1
        assert r.points_to("p") != r.points_to("q")


class TestSteensgaard:
    def test_base(self):
        r = run(SteensgaardSolver, "int x, *p; void f(void) { p = &x; }")
        assert r.points_to("p") == {"x"}

    def test_unification_merges_backwards(self):
        # The hallmark imprecision: q = p unifies pts(p) and pts(q).
        r = run(SteensgaardSolver, """
        int x, y, *p, *q;
        void f(void) { p = &x; q = &y; q = p; }
        """)
        assert r.points_to("p") == {"x", "y"}
        assert r.points_to("q") == {"x", "y"}

    def test_superset_of_andersen(self):
        src = """
        int x, y, *a, *b, *c, **pp;
        void f(void) {
            a = &x; b = &y;
            pp = &a; *pp = b;
            c = *pp;
        }
        """
        andersen = run(PreTransitiveSolver, src)
        steens = run(SteensgaardSolver, src)
        for name, targets in andersen.pts.items():
            assert targets <= steens.points_to(name), name

    def test_targets_unify_too(self):
        # Storing two pointers in one cell makes their pointees one class.
        r = run(SteensgaardSolver, """
        int x, y, *p, *q, **pp;
        void f(void) { p = &x; q = &y; pp = &p; pp = &q; }
        """)
        assert r.points_to("pp") == {"p", "q"}

    def test_function_pointers(self):
        r = run(SteensgaardSolver, """
        int g2;
        int *geta(void) { return &g2; }
        int *(*fp)(void);
        int *out;
        void f(void) { fp = geta; out = fp(); }
        """, filename="s.c")
        assert "geta" in r.points_to("fp")
        assert "g2" in r.points_to("out")

    def test_discard_reports_zero_in_core(self):
        store = MemoryStore(lower_translation_unit(parse_c(
            "int x, *p; void f(void) { p = &x; }")))
        SteensgaardSolver(store).solve()
        assert store.stats.in_core == 0


class TestTransitiveIntake:
    def test_duplicate_copy_rows_add_one_edge(self):
        """Regression: linked units repeat COPY rows; each edge must be
        added and counted once, or ``edges_added`` inflates and the same
        propagation retries every round."""
        unit = UnitIR(filename="w.c")
        for name in ("x", "p", "q", "r"):
            unit.objects[name] = ProgramObject(name=name,
                                               kind=ObjectKind.VARIABLE)
        rows = [(PrimitiveKind.ADDR, "p", "x")] + [
            (PrimitiveKind.COPY, "q", "p"), (PrimitiveKind.COPY, "r", "p"),
        ] * 3 + [(PrimitiveKind.COPY, "r", "q")] * 2
        unit.assignments = [
            PrimitiveAssignment(kind=kind, dst=dst, src=src)
            for kind, dst, src in rows
        ]
        solver = TransitiveSolver(MemoryStore(unit))
        result = solver.solve()
        assert result.stats.edges_added == 3
        universe = solver.universe
        succ = solver._succ[universe.id_of("p")]
        assert sorted(universe.name_of(d) for d in bits(succ)) == ["q", "r"]
        assert result.points_to("r") == {"x"}


class TestResultAPI:
    def test_pointer_variables_excludes_empty(self):
        r = run(PreTransitiveSolver, """
        int x, *p, *unused;
        void f(void) { p = &x; }
        """)
        assert r.pointer_variables() == 1

    def test_points_to_relations_total(self):
        r = run(PreTransitiveSolver, """
        int x, y, *p, *q;
        void f(void) { p = &x; p = &y; q = p; }
        """)
        assert r.points_to_relations() == 4

    def test_pointed_by_reverse_index(self):
        r = run(PreTransitiveSolver, """
        int x, *p, *q;
        void f(void) { p = &x; q = p; }
        """)
        reverse = r.pointed_by()
        assert reverse["x"] >= {"p", "q"}

    def test_temporaries_excluded_from_counts(self):
        r = run(PreTransitiveSolver, """
        int x, **pp, *q;
        void f(void) { *pp = &x; q = *pp; }
        """)
        for name in r.pts:
            if r.objects.get(name) is not None:
                assert "$t" not in name or True
        # The temp introduced for *pp = &x holds &x but must not count.
        relation_names = [n for n, t in r.pts.items() if t]
        from repro.ir.objects import ObjectKind
        counted = [
            n for n in relation_names
            if r.objects.get(n) is None
            or r.objects[n].kind != ObjectKind.TEMP
        ]
        assert r.pointer_variables() == len(counted)


class TestSteensgaardCyclicTypes:
    def test_self_address_regression(self):
        """Regression (found by hypothesis): v0 = &v0 after other address
        assignments used to drop the lval on a dead union-find node."""
        r = run(SteensgaardSolver, """
        int *v2;
        int **v1;
        int ***v0_;
        void f(void) {
            v0_ = (int ***)&v1;
            v1 = (int **)&v2;
            v0_ = (int ***)&v0_;
        }
        """)
        assert "v0_" in r.points_to("v0_")
        assert "v1" in r.points_to("v0_")

    def test_constraint_level_regression(self):
        from repro.ir.lower import UnitIR
        from repro.ir.objects import ObjectKind, ProgramObject
        from repro.ir.primitives import PrimitiveAssignment, PrimitiveKind

        unit = UnitIR(filename="x.c")
        for v in ("v0", "v1", "v2"):
            unit.objects[v] = ProgramObject(name=v, kind=ObjectKind.VARIABLE)
        unit.assignments = [
            PrimitiveAssignment(kind=PrimitiveKind.ADDR, dst="v0", src="v1"),
            PrimitiveAssignment(kind=PrimitiveKind.ADDR, dst="v1", src="v2"),
            PrimitiveAssignment(kind=PrimitiveKind.ADDR, dst="v0", src="v0"),
        ]
        r = SteensgaardSolver(MemoryStore(unit)).solve()
        assert {"v0", "v1"} <= r.points_to("v0")
