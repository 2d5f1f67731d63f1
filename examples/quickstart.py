#!/usr/bin/env python3
"""Quickstart: points-to analysis on a small C program in a few lines.

Run with::

    python examples/quickstart.py
"""

from repro.driver import Workspace

SOURCE = """
#include <stdlib.h>

struct buffer { char *data; int len; };

char *shared;
struct buffer buf;

void setup(void) {
    buf.data = malloc(64);
    shared = buf.data;
}

char *get(struct buffer *b) {
    return b->data;
}

void use(void) {
    char *local = get(&buf);
    (void)local;
}
"""


def main() -> None:
    project = Workspace()
    project.add_source("quick.c", SOURCE)

    # The analyze phase: field-based Andersen's analysis with the paper's
    # pre-transitive graph algorithm.
    result = project.points_to()

    print("points-to sets:")
    for name in ("shared", "buffer.data", "quick.c::use::local"):
        targets = ", ".join(sorted(result.points_to(name))) or "(empty)"
        print(f"  pts({name}) = {{{targets}}}")

    print()
    print(f"pointer variables: {result.pointer_variables()}")
    print(f"points-to relations: {result.points_to_relations()}")
    print(f"solver rounds: {result.stats.rounds}, "
          f"edges added: {result.stats.edges_added}")

    # may_alias is the aliasing question the dependence tool needs.
    print()
    print("may_alias(shared, quick.c::use::local):",
          result.may_alias("shared", "quick.c::use::local"))

    # Compare all four solvers on the same project.
    print()
    print("solver comparison (same program):")
    for solver in ("pretransitive", "transitive", "steensgaard",
                   "onelevel"):
        r = project.points_to(solver)
        print(f"  {solver:14s} relations={r.points_to_relations()}")


if __name__ == "__main__":
    main()
