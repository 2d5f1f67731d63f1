"""Figures 1, 3 and 4: the paper's worked examples, verified and timed.

These are correctness figures rather than measurements; the benches assert
the exact results the paper derives and time the corresponding pipeline
stage on the figure's program (so regressions in the small-program fast
path show up here).
"""

from repro.cfront import parse_c
from repro.cla.store import MemoryStore
from repro.cla.writer import ObjectFileWriter
from repro.depend import render_chain
from repro.engine.pipeline import Pipeline
from repro.ir import lower_translation_unit
from repro.solvers import PreTransitiveSolver

FIGURE1 = """short target;
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

FIGURE3 = """
int x, *y;
int **z;
void f(void) { z = &y; *z = &x; }
"""

FIGURE4 = """
int x, y, z, *p, *q;
void main1(void) { x = y; x = z; *p = z; p = q; q = &y; x = *p; }
"""


def test_figure1_dependence(benchmark, report):
    """Figure 1: dependence chains for target ``target``."""
    store = MemoryStore(
        lower_translation_unit(parse_c(FIGURE1, filename="eg1.c"))
    )
    points_to = PreTransitiveSolver(store).solve()

    result = benchmark(
        lambda: Pipeline().depend(store, points_to, "target"))
    dependents = {
        n for n, d in result.dependents.items() if d.parent is not None
    }
    assert dependents == {"u", "w", "S.x"}
    chain = render_chain(store, result, "w")
    assert chain.startswith("w/short <eg1.c:3>")
    assert chain.endswith("where target/short <eg1.c:1>")
    report.append(f"[figure1] {chain}")


def test_figure3_deduction(benchmark, report):
    """Figure 3: z = &y; *z = &x derives y -> &x."""

    def solve():
        store = MemoryStore(
            lower_translation_unit(parse_c(FIGURE3, filename="f3.c"))
        )
        return PreTransitiveSolver(store).solve()

    result = benchmark(solve)
    assert result.points_to("z") == {"y"}
    assert result.points_to("y") == {"x"}
    report.append("[figure3] derived y -> &x as in the paper")


def test_figure4_object_file(benchmark, report):
    """Figure 4: the object file's block structure for the example."""

    def build():
        unit = lower_translation_unit(parse_c(FIGURE4, filename="a.c"))
        return ObjectFileWriter(MemoryStore(unit)).serialize(), unit

    data, unit = benchmark(build)
    store = MemoryStore(unit)
    assert [str(a) for a in store.static_assignments()] == ["q = &y"]
    assert [str(a) for a in store.load_block("z").assignments] == [
        "x = z", "*p = z",
    ]
    assert [str(a) for a in store.load_block("p").assignments] == ["x = *p"]
    assert [str(a) for a in store.load_block("q").assignments] == ["p = q"]
    report.append(
        f"[figure4] object file: {len(data)} bytes, blocks match the sketch"
    )
