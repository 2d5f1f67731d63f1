"""Lazy forward-dependence edge generation.

The dependence analysis walks value flow *forward* from a target (§2): an
edge ``y -> x`` means x can receive a value derived from y.  Edges come
from the same primitive assignments as the points-to analysis, but complex
assignments are resolved through the points-to result:

=============  =========================================================
``x = y``      edge ``y -> x`` (strength of the assignment)
``*p = y``     edge ``y -> t`` for every t in pts(p)
``x = *p``     edge ``t -> x`` for every t in pts(p)
``*p = *q``    edge ``t -> u`` for every t in pts(q), u in pts(p)
``x = &y``     no value dependence (the address is new data, not y's value)
=============  =========================================================

Edges are produced on demand, exactly as §4 sketches ("we then load the
block for z, which contains the primitive assignments x = z and *p = z
... we find from the points-to analysis that p can point to &y, and so we
build a data-structure for y and load the block for y"): the successors of
``y`` need only ``y``'s own block plus the blocks of the pointers that may
point to ``y`` (for the loads/stores that flow *through* ``y``'s cell).
Those pointers come from the result's reverse index, built once per
fixpoint (:meth:`~repro.solvers.base.PointsToResult.pointed_by`).

Edges come out in one fixed order, so that a search that keeps the first
of two equally good edges answers alike in every process and from either
store: ``y``'s own block's rows in block order, then the pointers into
``y``'s cell in name order (each pointer's rows in block order), and a
store's targets in name order.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cfront.source import Location
from ..cla.store import ConstraintStore
from ..ir.primitives import PrimitiveKind
from ..ir.strength import Strength
from ..solvers.base import PointsToResult

_COPY = PrimitiveKind.COPY
_STORE = PrimitiveKind.STORE
_LOAD = PrimitiveKind.LOAD
_STORE_LOAD = PrimitiveKind.STORE_LOAD
_NONE = Strength.NONE


@dataclass(slots=True, unsafe_hash=True)
class DependenceEdge:
    """One forward dependence step ``source -> dependent``.

    A search builds hundreds of these, so it is a plain slots record
    (no frozen-instance setattr); it still compares and hashes by value.
    """

    source: str
    dependent: str
    strength: Strength
    op: str
    location: Location
    #: True when this flow went through memory (via a pointer dereference).
    through_pointer: bool = False


class DependenceGraph:
    """Demand-driven successor generation over a store + points-to result.

    A graph lives for one search, which expands each name once, so
    successors are generated afresh on every call.  Rows whose operation
    has strength NONE carry no dependence and yield no edge.
    """

    def __init__(self, store: ConstraintStore, points_to: PointsToResult):
        self.store = store
        self._pointed_by = points_to.pointed_by()
        self._targets_of = points_to.pts.sorted_targets
        self.blocks_loaded = 0

    def successors(self, name: str) -> list[DependenceEdge]:
        """The edges out of ``name``, in the module's edge order."""
        edges: list[DependenceEdge] = []
        self._edges_from_own_block(name, edges)
        self._edges_through_cell(name, edges)
        return edges

    def _edges_from_own_block(self, name: str, edges: list[DependenceEdge]) -> None:
        """Assignments triggered by ``name``: x = name and *p = name."""
        block = self.store.load_block(name)
        if block is None:
            return
        self.blocks_loaded += 1
        append = edges.append
        for a in block.assignments:
            if a.src != name or a.strength is _NONE:
                continue
            kind = a.kind
            if kind is _COPY:
                append(DependenceEdge(name, a.dst, a.strength, a.op,
                                      a.location))
            elif kind is _STORE:
                for target in self._targets_of(a.dst):
                    append(DependenceEdge(name, target, a.strength, a.op,
                                          a.location, True))

    def _edges_through_cell(self, name: str, edges: list[DependenceEdge]) -> None:
        """Loads that read ``name``'s memory cell: x = *p with name in
        pts(p), and *r = *p similarly."""
        load_block = self.store.load_block
        append = edges.append
        for pointer in self._pointed_by.get(name, ()):
            block = load_block(pointer)
            if block is None:
                continue
            self.blocks_loaded += 1
            for a in block.assignments:
                if a.src != pointer or a.strength is _NONE:
                    continue
                kind = a.kind
                if kind is _LOAD:
                    append(DependenceEdge(name, a.dst, a.strength, a.op,
                                          a.location, True))
                elif kind is _STORE_LOAD:
                    for target in self._targets_of(a.dst):
                        append(DependenceEdge(name, target, a.strength,
                                              a.op, a.location, True))
