"""Tests for the Graphviz exporters."""

from repro.cfront import parse_c
from repro.cla.store import MemoryStore
from repro.driver.export import dependence_dot, points_to_dot
from repro.engine.pipeline import Pipeline
from repro.ir import lower_translation_unit
from repro.solvers import PreTransitiveSolver

SRC = """
int x, y, *p, *q, **pp;
void f(void) {
    short t2, a, b;
    p = &x; q = &y; q = p;
    pp = &p;
    a = t2; b = a * 2;
}
"""


def build():
    store = MemoryStore(
        lower_translation_unit(parse_c(SRC, filename="g.c"))
    )
    return store, PreTransitiveSolver(store).solve()


class TestPointsToDot:
    def test_valid_digraph(self):
        _, result = build()
        dot = points_to_dot(result)
        assert dot.startswith("digraph points_to {")
        assert dot.rstrip().endswith("}")

    def test_edges_match_relation(self):
        _, result = build()
        dot = points_to_dot(result)
        assert '"q" -> "x"' in dot
        assert '"q" -> "y"' in dot
        assert '"p" -> "x"' in dot
        assert '"p" -> "y"' not in dot

    def test_cap_and_omission_note(self):
        _, result = build()
        dot = points_to_dot(result, max_pointers=1)
        assert "omitted" in dot

    def test_include_pins_nodes(self):
        _, result = build()
        dot = points_to_dot(result, max_pointers=0, include=["pp"])
        assert '"pp" -> "p"' in dot

    def test_quoting(self):
        _, result = build()
        dot = points_to_dot(result)
        # canonical names with '::' must be quoted, not bare
        assert '"' in dot


class TestDependenceDot:
    def test_forest_structure(self):
        store, points_to = build()
        result = Pipeline().depend(store, points_to, "t2")
        dot = dependence_dot(store, result)
        assert "doubleoctagon" in dot  # the target
        assert "->" in dot
        assert dot.startswith("digraph dependence {")

    def test_strength_styles(self):
        store, points_to = build()
        result = Pipeline().depend(store, points_to, "t2")
        dot = dependence_dot(store, result)
        assert "dashed" in dot  # the weak b = a * 2 edge
        assert 'label="*"' in dot

    def test_cap(self):
        store, points_to = build()
        result = Pipeline().depend(store, points_to, "t2")
        dot = dependence_dot(store, result, max_nodes=1)
        assert "omitted" in dot


class TestCliIntegration:
    def test_analyze_dot(self, tmp_path, capsys):
        from repro.driver.cli import main

        src = tmp_path / "a.c"
        src.write_text("int x, *p; void f(void) { p = &x; }")
        obj, db = str(tmp_path / "a.o"), str(tmp_path / "a.cla")
        assert main(["compile", str(src), "-o", obj]) == 0
        assert main(["link", obj, "-o", db]) == 0
        out = str(tmp_path / "pts.dot")
        assert main(["analyze", db, "--dot", out]) == 0
        with open(out) as f:
            assert f.read().startswith("digraph")

    def test_depend_dot(self, tmp_path, capsys):
        from repro.driver.cli import main

        src = tmp_path / "a.c"
        src.write_text("void f(void) { short t2, a; a = t2; }")
        obj, db = str(tmp_path / "a.o"), str(tmp_path / "a.cla")
        assert main(["compile", str(src), "-o", obj]) == 0
        assert main(["link", obj, "-o", db]) == 0
        out = str(tmp_path / "dep.dot")
        assert main(["depend", db, "--target", "t2", "--dot", out]) == 0
        with open(out) as f:
            assert "digraph dependence" in f.read()
