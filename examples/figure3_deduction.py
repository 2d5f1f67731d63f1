#!/usr/bin/env python3
"""Figures 2 & 3 of the paper: the deductive reachability system at work.

Figure 2 gives four deduction rules for aliasing analysis; Figure 3 shows
how, for::

    int x, *y;
    int **z;
    z = &y;
    *z = &x;

the system derives ``y -> &x``:

    z -> &y          (assign)
    *z -> &x         (assign)
    y -> &x          (from star-1)

This script shows the same derivation through the implementation: the
lowered primitive assignments, the pre-transitive graph the solver builds,
and the resulting points-to sets.

Run with::

    python examples/figure3_deduction.py
"""

from repro.cfront import parse_c
from repro.cla.store import MemoryStore
from repro.ir import lower_translation_unit
from repro.solvers import PreTransitiveSolver

FIGURE3 = """
int x, *y;
int **z;
void f(void) {
  z = &y;
  *z = &x;
}
"""


def main() -> None:
    unit = lower_translation_unit(parse_c(FIGURE3, filename="f3.c"))
    print("primitive assignments (the compile phase):")
    for a in unit.assignments:
        print(f"  {a}")

    store = MemoryStore(unit)
    solver = PreTransitiveSolver(store)
    result = solver.solve()

    print()
    print("derivation, Figure 3 style:")
    print("  z -> &y          (base assignment: z = &y)")
    print("  *z -> &x         (complex assignment *z = &x, kept in C)")
    print("  y -> &x          (star-1: y in getLvals(z), so edge y -> t)")
    print()
    print("points-to results:")
    for name in ("z", "y"):
        print(f"  pts({name}) = {sorted(result.points_to(name))}")
    assert result.points_to("z") == {"y"}
    assert result.points_to("y") == {"x"}
    print()
    print(f"solver: {result.stats.rounds} iteration rounds, "
          f"{result.stats.edges_added} edges, "
          f"{result.stats.lval_queries} getLvals queries")


if __name__ == "__main__":
    main()
