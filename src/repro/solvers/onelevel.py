"""Das's hybrid "unification-based pointer analysis with directional
assignments" (one-level flow) baseline.

The paper's §3 discusses Das's PLDI 2000 algorithm as the strongest
unification-based competitor: "for a small increase in analysis time (and
quadratic worst-case complexity), much of the additional accuracy of the
subset-based approach can be recovered", and §6 quotes its Word97 numbers.
This module implements the one-level-flow idea on the CLA database:

* **the top level is directional**: values move along *flow edges* between
  location classes, so ``x = y`` does not pollute ``pts(y)`` with what
  only ``x`` holds — the level where Das observed nearly all of
  Andersen's extra precision lives;
* **everything below the top level is unified**, Steensgaard-style: the
  cells reachable through one dereference collapse into equivalence
  classes, keeping the algorithm near-linear and store/load handling
  trivial (a store writes into one cell class; a load reads from it).

Constraint translation (ecr(x) is x's union-find location class):

=============  =============================================================
``x = &y``     ``direct(ecr(x)) += {y}``; join(pointee(x), ecr(y))
``x = y``      flow ``ecr(y) -> ecr(x)``; join(pointee(x), pointee(y))
``*p = y``     flow ``ecr(y) -> pointee(p)``;
               join(pointee(y), pointee(pointee(p)))
``x = *p``     flow ``pointee(p) -> ecr(x)``;
               join(pointee(x), pointee(pointee(p)))
``*p = *q``    flow ``pointee(q) -> pointee(p)``;
               join(pointee(pointee(q)), pointee(pointee(p)))
=============  =============================================================

``pts(x)`` is then the union of ``direct`` sets over the flow-predecessor
closure of ``ecr(x)``.

Precision: ``Andersen <= one-level`` holds on every constraint system
(property-tested across thousands of random systems), and on realistic
code the hybrid recovers most of Andersen's precision at near-Steensgaard
cost — on the synthetic gcc profile the two are *identical* while
Steensgaard is ~17x coarser, matching Das's headline claim.  Unlike Das's
exact formulation, this translation is **not** always below Steensgaard:
in degenerate self-referential systems (``v = &v`` chains) the one-level
cell merging can union a top-level class whose ``direct`` set Steensgaard
keeps one level deeper.  Real programs do not exhibit the pattern; the
test suite pins both facts.

Representation (the integer core, ROADMAP item 2): classes are keyed by
interned node ids, ``direct`` sets and the propagated values are int
bitmasks over the shared target space, and the flow-closure worklist is
pure mask algebra (``out & ~mine``).  The union-find, and the link loop
around it, are Steensgaard's
(:class:`~repro.solvers.steensgaard.UnificationSolver`).
"""

from __future__ import annotations

from collections import deque

from ..cla.store import ConstraintStore
from ..ir.primitives import PrimitiveKind
from .steensgaard import Ecr, UnificationSolver

_COPY = PrimitiveKind.COPY
_ADDR = PrimitiveKind.ADDR
_STORE = PrimitiveKind.STORE
_LOAD = PrimitiveKind.LOAD


class _Flow(Ecr):
    """A location class with flow edges and direct lvals."""

    __slots__ = ("direct", "flow_out")

    def __init__(self):
        super().__init__()
        self.direct = 0  # target-space bitmask of lvals assigned here
        self.flow_out: set[_Flow] = set()

    def absorb(self, other: "_Flow") -> None:
        self.direct |= other.direct
        self.flow_out |= other.flow_out
        other.direct = 0
        other.flow_out = set()

    def unlink(self) -> None:
        super().unlink()
        self.flow_out.clear()


class OneLevelFlowSolver(UnificationSolver):
    """Das-style hybrid: directional top level, unified below."""

    name = "onelevel"
    ecr_type = _Flow

    def __init__(self, store: ConstraintStore):
        super().__init__(store)
        #: node id -> points-to mask, as of the last flow propagation
        self._pts: dict[int, int] = {}

    def _flow(self, src: _Flow, dst: _Flow) -> None:
        src, dst = self._find(src), self._find(dst)
        if src is dst or dst in src.flow_out:
            return
        src.flow_out.add(dst)
        self.stats.edges_added += 1

    # -- constraints -----------------------------------------------------------

    def _ingest_row(self, kind: PrimitiveKind, dst: int, src: int) -> None:
        self.stats.constraints += 1
        if kind is _ADDR:
            x = self._ecr(dst)
            x.direct |= 1 << src
            node = self.universe.target_node(src)
            self._join(self._pointee(x), self._ecr(node))
        elif kind is _COPY:
            x, y = self._ecr(dst), self._ecr(src)
            self._flow(y, x)
            self._join(self._pointee(x), self._pointee(y))
        elif kind is _STORE:  # *p = y
            p, y = self._ecr(dst), self._ecr(src)
            cell = self._pointee(p)
            self._flow(y, cell)
            self._join(self._pointee(y), self._pointee(cell))
        elif kind is _LOAD:  # x = *p
            x, p = self._ecr(dst), self._ecr(src)
            cell = self._pointee(p)
            self._flow(cell, x)
            self._join(self._pointee(x), self._pointee(cell))
        else:  # STORE_LOAD: *p = *q
            p, q = self._ecr(dst), self._ecr(src)
            p_cell, q_cell = self._pointee(p), self._pointee(q)
            self._flow(q_cell, p_cell)
            self._join(self._pointee(q_cell), self._pointee(p_cell))

    # -- solving ---------------------------------------------------------------

    def _callees(self):
        self._pts = pts = self._propagate()
        id_of = self.universe.id_of
        return [(pointer, pts.get(id_of(pointer), 0))
                for pointer in self._funcptrs]

    def _node_masks(self) -> dict[int, int]:
        return self._pts

    def _propagate(self) -> dict[int, int]:
        """Forward-propagate direct lval masks along flow edges, then read
        off per-node points-to masks (the one transitive pass Das pays
        for his directionality)."""
        roots: dict[int, _Flow] = {}
        for e in self._ecrs.values():
            root = self._find(e)
            roots[id(root)] = root
            # Pointee cells can carry flow edges/direct sets too.
            if root.pointee is not None:
                cell = self._find(root.pointee)
                roots[id(cell)] = cell
        value: dict[int, int] = {
            key: root.direct for key, root in roots.items()
        }
        worklist = deque(roots.values())
        queued = set(roots)
        while worklist:
            node = self._find(worklist.popleft())
            queued.discard(id(node))
            out = value.get(id(node), 0)
            for succ in list(node.flow_out):
                succ = self._find(succ)
                if id(succ) not in value:
                    roots[id(succ)] = succ
                    value[id(succ)] = succ.direct
                mine = value[id(succ)]
                new = out & ~mine
                if new:
                    value[id(succ)] = mine | new
                    if id(succ) not in queued:
                        queued.add(id(succ))
                        worklist.append(succ)
        find = self._find
        return {node: value.get(id(find(e)), 0)
                for node, e in self._ecrs.items()}
