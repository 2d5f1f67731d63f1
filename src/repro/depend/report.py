"""Dependence reporting: the text equivalent of the paper's GUI tools.

§2: "We also provide a collection of graphic user interface tools for
browsing the tree of chains and inspecting the corresponding source code
locations."  This module renders that tree in text form, buckets
dependents by chain importance for triage ("we prioritize them according
to the importance of their underlying dependence chain"), and exports the
result as JSON/CSV for downstream tooling.
"""

from __future__ import annotations

import csv
import io
import json

from ..cla.store import ConstraintStore
from .analysis import DependenceResult
from .chains import _object_label


def dependence_tree(result: DependenceResult) -> dict[str, list[str]]:
    """Children map of the best-chain forest rooted at the targets.

    Every dependent has exactly one parent (its best chain's predecessor),
    so the chains form a forest over the targets — the tree the paper's
    browsing tools displayed.
    """
    children: dict[str, list[str]] = {t: [] for t in result.targets}
    for name, dep in result.dependents.items():
        if dep.parent is None:
            continue
        children.setdefault(dep.parent, []).append(name)
        children.setdefault(name, children.get(name, []))
    for kids in children.values():
        kids.sort(key=lambda n: (
            -result.dependents[n].strength.value,
            result.dependents[n].distance,
            n,
        ))
    return children


def render_tree(
    store: ConstraintStore,
    result: DependenceResult,
    max_depth: int | None = None,
) -> str:
    """ASCII tree of dependence chains, most important branches first."""
    children = dependence_tree(result)
    lines: list[str] = []

    def visit(name: str, prefix: str, is_last: bool, depth: int) -> None:
        dep = result.dependents.get(name)
        connector = "" if not prefix and depth == 0 else (
            "`-- " if is_last else "|-- "
        )
        label = _object_label(store, name)
        if dep is not None and dep.via is not None:
            label = (f"{dep.via.strength.symbol} {label} "
                     f"{dep.via.location.brief()}")
        lines.append(prefix + connector + label)
        if max_depth is not None and depth >= max_depth:
            return
        kids = children.get(name, [])
        for i, kid in enumerate(kids):
            extension = "    " if is_last or not prefix and depth == 0 else "|   "
            visit(kid, prefix + ("" if depth == 0 and not prefix else extension),
                  i == len(kids) - 1, depth + 1)

    for target in result.targets:
        obj = store.get_object(target)
        decl = obj.location.brief() if obj is not None else ""
        lines.append(f"{_object_label(store, target)} {decl}  [target]")
        kids = children.get(target, [])
        for i, kid in enumerate(kids):
            visit(kid, "", i == len(kids) - 1, 1)
    return "\n".join(lines)


def priority_buckets(
    result: DependenceResult,
) -> dict[str, list[str]]:
    """Dependents grouped by chain importance, strongest first (§2's
    prioritisation, as buckets rather than a flat list)."""
    buckets: dict[str, list[str]] = {"direct": [], "strong": [], "weak": []}
    for dep in result.prioritized():
        buckets[dep.strength.name.lower()].append(dep.name)
    return buckets


def to_json(store: ConstraintStore, result: DependenceResult) -> str:
    """Machine-readable dump: one record per dependent with its chain."""
    records = []
    for dep in result.prioritized():
        obj = store.get_object(dep.name)
        chain = [
            {
                "object": step.name,
                "strength": step.strength.name,
                "location": (
                    str(step.via.location) if step.via is not None else None
                ),
                "op": step.via.op if step.via is not None else None,
            }
            for step in result.chain(dep.name)
        ]
        records.append({
            "object": dep.name,
            "type": obj.type_str if obj is not None else None,
            "declared_at": (
                str(obj.location)
                if obj is not None and not obj.location.is_unknown
                else None
            ),
            "strength": dep.strength.name,
            "distance": dep.distance,
            "chain": chain,
        })
    return json.dumps(
        {
            "targets": result.targets,
            "non_targets": sorted(result.non_targets),
            "dependents": records,
        },
        indent=2,
    )


def to_csv(store: ConstraintStore, result: DependenceResult) -> str:
    """Flat CSV for spreadsheet triage: one row per dependent object."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(
        ["object", "type", "declared_at", "strength", "distance", "parent",
         "via_location", "via_op"]
    )
    for dep in result.prioritized():
        obj = store.get_object(dep.name)
        writer.writerow([
            dep.name,
            obj.type_str if obj is not None else "",
            str(obj.location) if obj is not None
            and not obj.location.is_unknown else "",
            dep.strength.name,
            dep.distance,
            dep.parent or "",
            str(dep.via.location) if dep.via is not None else "",
            dep.via.op if dep.via is not None else "",
        ])
    return out.getvalue()


def summary_line(result: DependenceResult) -> str:
    """One-line triage header."""
    buckets = priority_buckets(result)
    total = sum(len(v) for v in buckets.values())
    return (
        f"{total} dependents of {', '.join(result.targets)}: "
        f"{len(buckets['direct'])} direct, {len(buckets['strong'])} strong, "
        f"{len(buckets['weak'])} weak"
        + (f"; {len(result.non_targets)} non-targets applied"
           if result.non_targets else "")
    )
