#!/usr/bin/env python3
"""Figure 1 of the paper: dependence results for a struct program.

The paper's Figure 1 analyzes this fragment with target ``target`` and
reports that ``u``, ``w`` and ``S.x`` are dependent, printing chains like::

    w/short <eg1.c:3> ! u/short <eg1.c:7> ! target/short <eg1.c:6>
        where target/short <eg1.c:1>

This script reproduces those chains (our separator encodes edge strength:
``=`` direct copy, ``!`` strong op, ``~`` weak op).

Run with::

    python examples/figure1_dependence.py
"""

from repro.cfront import parse_c
from repro.cla.store import MemoryStore
from repro.depend import render_all, summarize
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


def main() -> None:
    print("source (eg1.c):")
    for i, line in enumerate(FIGURE1.rstrip().splitlines(), start=1):
        print(f"  {i}. {line}")

    store = MemoryStore(
        lower_translation_unit(parse_c(FIGURE1, filename="eg1.c"))
    )
    points_to = PreTransitiveSolver(store).solve()
    print()
    print("points-to:  pts(v) =", sorted(points_to.points_to("v")))

    result = Pipeline().depend(store, points_to, "target")
    counts = summarize(result)
    print()
    print(f"dependents of 'target': {sum(counts.values())} "
          f"(direct={counts['direct']} strong={counts['strong']} "
          f"weak={counts['weak']})")
    print()
    print("dependence chains (most important first):")
    for line in render_all(store, result):
        print("  " + line)

    # The paper's field-based point: s.x and t.x share the object S.x, so
    # a type change to the x field covers both instances.
    print()
    print("field-based note: the dependent object is S.x — one object for")
    print("the x field of *every* struct S instance (s.x and t.x alike).")


if __name__ == "__main__":
    main()
