"""Baseline: Steensgaard's unification-based points-to analysis.

§3 contrasts the subset-based approach with the unification-based one [24]:
"an assignment such as x = y invokes a unification of the node for x and
the node for y in the points-to graph ... essentially linear-time
complexity" — faster and less accurate.  §4 notes the CLA infrastructure
was also used "for implementing unification-based points-to analysis";
this module is that implementation.

Each equivalence class of objects (ECR, union-find with path compression)
has at most one *pointee* class.  Assignments unify pointees:

* ``x = &y``  — join(pointee(x), ecr(y)), and record ``y`` as an lval of
  the pointee class (lval tracking keeps the reported points-to sets
  comparable with Andersen's: only address-taken objects are reported).
* ``x = y``   — join(pointee(x), pointee(y))
* ``x = *p``  — join(pointee(x), pointee(pointee(p)))
* ``*p = y``  — join(pointee(pointee(p)), pointee(y))
* ``*p = *q`` — join(pointee(pointee(p)), pointee(pointee(q)))

Simplification vs. Steensgaard's original: pointee classes are created
eagerly (fresh bottom nodes) instead of using conditional joins.  Results
are identical; the worst-case bound degrades from inverse-Ackermann-linear
to the same within a constant factor on realistic inputs, and the
implementation stays a page long.

Representation (the integer core, ROADMAP item 2): ECRs are keyed by
interned node ids and each class's lval set is an int bitmask over the
shared target space, so the ``a.lvals |= b.lvals`` merge in ``join`` is
one word-parallel OR regardless of class size.

The union-find itself (:class:`UnificationSolver`) is shared with the
one-level flow solver (:mod:`repro.solvers.onelevel`), which unifies
everything below its directional top level the same way.
"""

from __future__ import annotations

from ..cla.store import ConstraintStore
from ..ir.primitives import PrimitiveKind
from .base import BaseSolver, PointsToResult

_COPY = PrimitiveKind.COPY
_ADDR = PrimitiveKind.ADDR
_STORE = PrimitiveKind.STORE
_LOAD = PrimitiveKind.LOAD


class Ecr:
    """One union-find equivalence class; subclasses add what it holds."""

    __slots__ = ("parent", "rank", "pointee")

    def __init__(self):
        self.parent: "Ecr | None" = None
        self.rank = 0
        self.pointee: "Ecr | None" = None

    def absorb(self, other: "Ecr") -> None:
        """Take over what ``other`` holds: it has just joined this class."""

    def unlink(self) -> None:
        """Drop the links to other classes, but not ``parent``: the
        solve is over."""
        self.pointee = None


class UnificationSolver(BaseSolver):
    """The union-find and solve loop of the two unification solvers.

    A subclass supplies its class type (:attr:`ecr_type`), its constraint
    rules (:meth:`_ingest_row`), where its link loop finds each function
    pointer's callees (:meth:`_callees`) and its final per-node masks
    (:meth:`_node_masks`).
    """

    precision = "over"  # unification: sound per-object superset of Andersen
    ecr_type = Ecr

    def __init__(self, store: ConstraintStore):
        super().__init__(store)
        self._ecrs: dict[int, Ecr] = {}  # node id -> class
        #: every class made, pointee cells included, to unlink them all
        self._classes: list[Ecr] = []

    # -- union-find -----------------------------------------------------------

    def _ecr(self, node: int) -> Ecr:
        e = self._ecrs.get(node)
        if e is None:
            e = self._ecrs[node] = self.ecr_type()
            self._classes.append(e)
        return self._find(e)

    @staticmethod
    def _find(e: Ecr) -> Ecr:
        root = e
        while root.parent is not None:
            root = root.parent
        while e.parent is not None:
            e.parent, e = root, e.parent
        return root

    def _pointee(self, e: Ecr) -> Ecr:
        e = self._find(e)
        if e.pointee is None:
            e.pointee = self.ecr_type()
            self._classes.append(e.pointee)
        return self._find(e.pointee)

    def _join(self, a: Ecr, b: Ecr) -> Ecr:
        """Unify two classes, then their pointees, recursively; returns
        the class ``a`` ends in.  Iterative, so pointee chains of any
        depth (and cyclic ones, like ``v = &v``) are safe."""
        find = self._find
        stack = [(a, b)]
        while stack:
            x, y = stack.pop()
            x, y = find(x), find(y)
            if x is y:
                continue
            if x.rank < y.rank:
                x, y = y, x
            y.parent = x
            if x.rank == y.rank:
                x.rank += 1
            x.absorb(y)
            self.stats.cycles_collapsed += 1  # unifications, for comparison
            py, y.pointee = y.pointee, None
            if py is not None:
                if x.pointee is None:
                    x.pointee = py
                else:
                    stack.append((x.pointee, py))
        return find(a)

    # -- solving ---------------------------------------------------------------

    def solve(self) -> PointsToResult:
        self._begin()
        ingest = self._ingest_row
        for kind, dst, src in self._ingest_all_ids():
            ingest(kind, dst, src)

        # Function-pointer linking can reveal new callees (a callee's body
        # stores other function addresses); iterate to a fixpoint.  The
        # number of (pointer, callee) pairs bounds the loop.
        while True:
            self.stats.rounds += 1
            links = []
            for pointer, mask in self._callees():
                links += self._link(pointer, mask)
            for dst, src in self._copy_ids(links):
                ingest(_COPY, dst, src)
            self._emit_round()
            if not links:
                break

        self.store.discard(0)  # unification keeps no assignments at all
        masks = self._node_masks()
        self._release()
        return self._finalize_nodes(masks)

    def _release(self) -> None:
        """Unlink every class once the masks are read.  Pointee links
        (``v = &v``, a list node pointing at its own type) and flow edges
        can form reference cycles; unlinked, reference counting frees the
        classes with the solver."""
        for e in self._classes:
            e.unlink()

    def _ingest_row(self, kind: PrimitiveKind, dst: int, src: int) -> None:
        """One id-space constraint row (``src`` is a target id for ADDR)."""
        raise NotImplementedError

    def _callees(self):
        """``(pointer, mask)`` for each function pointer, ``mask`` holding
        its current targets (the functions among them are its callees)."""
        raise NotImplementedError

    def _node_masks(self) -> dict[int, int]:
        """The final points-to mask of every node."""
        raise NotImplementedError


class _Lvals(Ecr):
    """A Steensgaard class: its lval set is what its pointers point to."""

    __slots__ = ("lvals",)

    def __init__(self):
        super().__init__()
        self.lvals = 0  # target-space bitmask of address-taken objects

    def absorb(self, other: "_Lvals") -> None:
        self.lvals |= other.lvals
        other.lvals = 0


class SteensgaardSolver(UnificationSolver):
    """Unification-based points-to analysis on the CLA database."""

    name = "steensgaard"
    ecr_type = _Lvals

    def _ingest_row(self, kind: PrimitiveKind, dst: int, src: int) -> None:
        if kind is _ADDR:
            p = self._pointee(self._ecr(dst))
            node = self.universe.target_node(src)
            self._join(p, self._ecr(node)).lvals |= 1 << src
        elif kind is _COPY:
            self._join(self._pointee(self._ecr(dst)),
                       self._pointee(self._ecr(src)))
        elif kind is _LOAD:
            p = self._pointee(self._pointee(self._ecr(src)))
            self._join(self._pointee(self._ecr(dst)), p)
        elif kind is _STORE:
            p = self._pointee(self._pointee(self._ecr(dst)))
            self._join(p, self._pointee(self._ecr(src)))
        else:  # STORE_LOAD
            a = self._pointee(self._pointee(self._ecr(dst)))
            b = self._pointee(self._pointee(self._ecr(src)))
            self._join(a, b)
        self.stats.constraints += 1

    def _callees(self):
        intern = self.universe.intern
        for pointer in self._funcptrs:
            yield pointer, self._pointee(self._ecr(intern(pointer))).lvals

    def _node_masks(self) -> dict[int, int]:
        find = self._find
        masks = {}
        for node, e in self._ecrs.items():
            pointee = find(e).pointee
            masks[node] = find(pointee).lvals if pointee is not None else 0
        return masks
