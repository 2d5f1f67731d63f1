"""Graphviz (DOT) export of analysis results.

The paper's deployed tool shipped with browsing UIs (§2); these exporters
are the batch equivalent: render the points-to graph or the dependence
forest for inspection with ``dot -Tsvg``.

Both exporters cap the node count (points-to graphs of real code bases
are join-point-heavy, §5, and a 100K-edge DOT file helps nobody): nodes
are ranked by points-to set size / chain importance and the cap keeps the
most informative ones.
"""

from __future__ import annotations

from ..cla.store import ConstraintStore
from ..depend.analysis import DependenceResult
from ..ir.strength import Strength
from ..solvers.base import PointsToResult


def _quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def points_to_dot(
    result: PointsToResult,
    store: ConstraintStore | None = None,
    max_pointers: int = 60,
    include: list[str] | None = None,
) -> str:
    """The points-to relation as a bipartite-ish digraph.

    Pointer nodes are ellipses; pointed-to objects are boxes, functions
    octagons and heap sites 3-D boxes; an edge ``p -> x`` means ``x in
    pts(p)``.  ``include`` pins specific objects into the graph regardless
    of ranking.  A target's kind is read from ``store``, the store the
    result was solved from: ``result.objects`` covers only the result's
    own names, and under the subset-based solvers a function or heap site
    is seldom one of them.  Without a store only those kinds are known.
    """
    get_object = result.objects.get if store is None else store.get_object
    ranked = sorted(
        ((name, targets) for name, targets in result.pts.items() if targets),
        key=lambda kv: (-len(kv[1]), kv[0]),
    )
    chosen = dict(ranked[:max_pointers])
    for name in include or ():
        if name in result.pts and result.pts[name]:
            chosen[name] = result.pts[name]
    lines = [
        "digraph points_to {",
        "    rankdir=LR;",
        '    node [fontname="monospace", fontsize=10];',
    ]
    targets_seen: set[str] = set()
    for name, targets in sorted(chosen.items()):
        lines.append(f"    {_quote(name)} [shape=ellipse];")
        for target in sorted(targets):
            if target not in targets_seen:
                targets_seen.add(target)
                shape = "box"
                obj = get_object(target)
                if obj is not None and obj.kind.name == "FUNCTION":
                    shape = "octagon"
                elif obj is not None and obj.kind.name == "HEAP":
                    shape = "box3d"
                lines.append(f"    {_quote(target)} [shape={shape}];")
            lines.append(f"    {_quote(name)} -> {_quote(target)};")
    omitted = sum(1 for _, t in result.pts.items() if t) - len(chosen)
    if omitted > 0:
        lines.append(
            f'    label="{omitted} smaller points-to sets omitted";'
        )
        lines.append("    labelloc=b;")
    lines.append("}")
    return "\n".join(lines) + "\n"


_STRENGTH_STYLE = {
    Strength.DIRECT: 'color="black", penwidth=1.6',
    Strength.STRONG: 'color="black"',
    Strength.WEAK: 'color="gray50", style=dashed',
    Strength.NONE: 'color="gray80", style=dotted',
}


def dependence_dot(
    store: ConstraintStore,
    result: DependenceResult,
    max_nodes: int = 120,
) -> str:
    """The best-chain dependence forest as a digraph.

    Edges point in the direction of value flow (target -> dependents);
    edge style encodes the Table 1 strength of the step.
    """
    ordered = result.prioritized()[: max_nodes]
    keep = {d.name for d in ordered} | set(result.targets)
    lines = [
        "digraph dependence {",
        '    node [fontname="monospace", fontsize=10, shape=box];',
    ]
    for target in result.targets:
        obj = store.get_object(target)
        where = f"\\n{obj.location}" if obj is not None \
            and not obj.location.is_unknown else ""
        lines.append(
            f"    {_quote(target)} "
            f'[label={_quote(target + where)}, shape=doubleoctagon];'
        )
    for dep in ordered:
        if dep.parent is None or dep.parent not in keep:
            continue
        obj = store.get_object(dep.name)
        label = dep.name
        if obj is not None and obj.type_str:
            label += f"\\n{obj.type_str}"
        lines.append(f"    {_quote(dep.name)} [label={_quote(label)}];")
        style = _STRENGTH_STYLE[dep.strength]
        via = ""
        if dep.via is not None and dep.via.op:
            via = f', label="{dep.via.op}"'
        lines.append(
            f"    {_quote(dep.parent)} -> {_quote(dep.name)} "
            f"[{style}{via}];"
        )
    omitted = len(result.prioritized()) - len(ordered)
    if omitted > 0:
        lines.append(f'    label="{omitted} weaker dependents omitted";')
        lines.append("    labelloc=b;")
    lines.append("}")
    return "\n".join(lines) + "\n"
