#!/usr/bin/env python3
"""Call-graph extraction and dead-code detection — a downstream client of
points-to analysis.

Indirect calls make call graphs undecidable without aliasing information;
the paper's §4 machinery (standardized argument variables + analysis-time
linking) resolves them. This example builds a dispatcher-style program,
extracts the full call graph (dashed edges = resolved function pointers),
and answers the dead-code question from a chosen entry point.

Run with::

    python examples/callgraph_deadcode.py
"""

from repro.depend import build_call_graph
from repro.driver import Workspace

SOURCE = """
#include <stdlib.h>

struct command {
    const char *name;
    int (*run)(int);
};

int cmd_start(int v) { return v + 1; }
int cmd_stop(int v) { return v - 1; }
int cmd_status(int v) { return v; }
int cmd_legacy(int v) { return v * 2; }   /* never registered */

struct command table[3];

void register_commands(void) {
    table[0].run = cmd_start;
    table[1].run = cmd_stop;
    table[2].run = cmd_status;
}

int dispatch(int index, int arg) {
    return table[index].run(arg);
}

int helper_unused(int v) { return cmd_legacy(v); }  /* dead with legacy */

int main(void) {
    register_commands();
    return dispatch(0, 41);
}
"""


def main() -> None:
    project = Workspace()
    project.add_source("cmds.c", SOURCE)
    store = project.store()
    points_to = project.points_to()

    graph = build_call_graph(store, points_to)
    edges = sum(len(c) for c in graph.edges.values())
    print(f"{len(graph.functions())} functions, {edges} call edges "
          f"({len(graph.indirect)} through function pointers)")
    print()
    for caller in sorted(graph.edges):
        for callee in sorted(graph.edges[caller]):
            marker = "  (via fn ptr)" if (caller, callee) in graph.indirect \
                else ""
            print(f"  {caller} -> {callee}{marker}")

    live = graph.reachable_from(["main"])
    dead = sorted(graph.functions() - live)
    print()
    print(f"reachable from main: {len(live)} functions")
    print(f"dead code: {', '.join(dead) or '(none)'}")
    print()
    print("note: dispatch() resolves to cmd_start/cmd_stop/cmd_status via")
    print("pts(command.run) — cmd_legacy was never stored in the table, so")
    print("it and its only caller are provably unreachable.")
    print()
    print("Graphviz (pipe into `dot -Tsvg`):")
    print(graph.to_dot())


if __name__ == "__main__":
    main()
