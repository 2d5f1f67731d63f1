"""Call-graph construction — the classic client of points-to analysis.

Direct call edges come straight from the call-site records the compile
phase stores (§4: it "extracts assignments and function
calls/returns/definitions"); indirect calls ``(*fp)(...)`` resolve through
the points-to set of ``fp`` — the §4 analysis-time linking, read back as a
graph.  The result is the whole-program call graph interactive tools
slice, display, and use for dead-code questions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cla.store import ConstraintStore
from ..solvers.base import PointsToResult


@dataclass
class CallGraph:
    """Whole-program call graph over canonical function names."""

    #: caller -> set of callees
    edges: dict[str, set[str]] = field(default_factory=dict)
    #: edges that came from resolving a function pointer
    indirect: set[tuple[str, str]] = field(default_factory=set)
    #: function pointers at call sites that resolved to no function
    unresolved_pointers: set[str] = field(default_factory=set)
    #: call-site counts per edge (a caller can call a callee many times)
    site_counts: dict[tuple[str, str], int] = field(default_factory=dict)
    #: every function *defined* in the code base (has a body), called or
    #: not — dead-code questions need the uncalled ones, but undefined
    #: prototypes (library declarations) are not the program's dead code
    defined: frozenset[str] = frozenset()

    def add(self, caller: str, callee: str, indirect: bool) -> None:
        self.edges.setdefault(caller, set()).add(callee)
        key = (caller, callee)
        self.site_counts[key] = self.site_counts.get(key, 0) + 1
        if indirect:
            self.indirect.add(key)

    def callees(self, function: str) -> frozenset[str]:
        return frozenset(self.edges.get(function, ()))

    def callers(self, function: str) -> frozenset[str]:
        return frozenset(
            caller for caller, callees in self.edges.items()
            if function in callees
        )

    def functions(self) -> frozenset[str]:
        out = set(self.edges) | set(self.defined)
        for callees in self.edges.values():
            out |= callees
        return frozenset(out)

    def reachable_from(self, roots: list[str]) -> frozenset[str]:
        """Transitively callable functions — the dead-code question."""
        seen: set[str] = set()
        stack = list(roots)
        while stack:
            fn = stack.pop()
            if fn in seen:
                continue
            seen.add(fn)
            stack.extend(self.edges.get(fn, ()))
        return frozenset(seen)

    def to_dot(self, max_nodes: int = 150) -> str:
        ranked = sorted(
            self.functions(),
            key=lambda fn: -(len(self.edges.get(fn, ()))
                             + len(self.callers(fn))),
        )
        keep = set(ranked[:max_nodes])
        lines = [
            "digraph callgraph {",
            '    node [fontname="monospace", fontsize=10, shape=box];',
        ]
        for caller in sorted(self.edges):
            if caller not in keep:
                continue
            for callee in sorted(self.edges[caller]):
                if callee not in keep:
                    continue
                attrs = []
                if (caller, callee) in self.indirect:
                    attrs.append('style=dashed')
                    attrs.append('label="*"')
                count = self.site_counts.get((caller, callee), 1)
                if count > 1:
                    attrs.append(f'penwidth={min(1 + count / 2, 4):.1f}')
                suffix = f" [{', '.join(attrs)}]" if attrs else ""
                lines.append(f'    "{caller}" -> "{callee}"{suffix};')
        omitted = len(self.functions()) - len(keep)
        if omitted > 0:
            lines.append(f'    label="{omitted} functions omitted";')
            lines.append("    labelloc=b;")
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_call_graph(
    store: ConstraintStore, points_to: PointsToResult
) -> CallGraph:
    """Build the call graph from the database's call-site records plus a
    points-to result for the indirect edges."""
    graph = CallGraph()
    functions = store.object_flags().functions
    graph.defined = frozenset(
        name for name in functions
        if (block := store.load_block(name)) is not None
        and block.function_record is not None
    )
    for record in store.call_sites():
        if not record.indirect:
            # Direct targets are function objects by construction (the
            # lowering only records a direct call after resolving one).
            graph.add(record.caller, record.target, indirect=False)
            continue
        callees = [
            t for t in points_to.points_to(record.target) if t in functions
        ]
        if not callees:
            graph.unresolved_pointers.add(record.target)
        for callee in callees:
            graph.add(record.caller, callee, indirect=True)
    return graph
