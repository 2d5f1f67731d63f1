"""Dependence-chain rendering in the paper's Figure 1 style.

A chain prints as::

    w/short <eg1.c:3> ! u/short <eg1.c:7> ! target/short <eg1.c:6> where target/short <eg1.c:1>

— the dependent object first, each step annotated with the location of the
assignment that created the dependence, ending at the target with its
declaration site.  Step separators encode the edge strength: ``=`` for a
direct copy, ``!`` strong, ``~`` weak.
"""

from __future__ import annotations

from ..cla.store import ConstraintStore
from .analysis import DependenceResult


def _object_label(store: ConstraintStore, name: str) -> str:
    """``name/type`` with the canonical name shortened to its source form."""
    obj = store.get_object(name)
    display = name.rsplit("::", 1)[-1] if "::" in name else name
    if obj is not None and obj.type_str:
        return f"{display}/{obj.type_str}"
    return display


def _declaration_of(store: ConstraintStore, name: str) -> str:
    obj = store.get_object(name)
    return obj.location.brief() if obj is not None else "<unknown>"


def render_chain(
    store: ConstraintStore, result: DependenceResult, name: str
) -> str:
    """Render the best chain for one dependent, Figure 1 style.

    Figure 1's convention: the dependent object leads with its
    *declaration* site; every following object carries the location of the
    assignment through which its value reached the previous object; the
    trailing ``where`` clause restates the target's declaration.  The only
    divergence from the paper is the step separator, which here encodes the
    edge strength (``=`` direct, ``!`` strong, ``~`` weak) instead of a
    uniform ``!``.
    """
    chain = result.chain(name)
    if not chain:
        return f"{name}: not dependent"
    head = chain[0]
    parts = [f"{_object_label(store, head.name)} "
             f"{_declaration_of(store, head.name)}"]
    for i in range(1, len(chain)):
        via = chain[i - 1].via
        step = chain[i]
        symbol = via.strength.symbol if via is not None else "="
        location = via.location.brief() if via is not None else "<unknown>"
        parts.append(symbol)
        parts.append(f"{_object_label(store, step.name)} {location}")
    target = chain[-1]
    if len(chain) == 1:
        return parts[0]
    where = (
        f" where {_object_label(store, target.name)} "
        f"{_declaration_of(store, target.name)}"
    )
    return " ".join(parts) + where


def render_all(
    store: ConstraintStore,
    result: DependenceResult,
    limit: int | None = None,
) -> list[str]:
    """Chains for all dependents, most important first (§2 prioritisation)."""
    ordered = result.prioritized()
    if limit is not None:
        ordered = ordered[:limit]
    return [render_chain(store, result, d.name) for d in ordered]


def summarize(result: DependenceResult) -> dict[str, int]:
    """Counts by chain importance, for the report header."""
    # Strength.NONE appears on hand-built results (a dependent recorded
    # with a parent but no flow strength); count it rather than KeyError.
    counts = {"direct": 0, "strong": 0, "weak": 0, "none": 0}
    for d in result.dependents.values():
        if d.parent is None:
            continue
        counts[d.strength.name.lower()] += 1
    return counts
