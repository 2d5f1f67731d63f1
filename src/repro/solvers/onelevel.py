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
pure mask algebra (``out & ~mine``).
"""

from __future__ import annotations

from collections import deque

from ..cla.store import ConstraintStore
from ..ir.primitives import PrimitiveKind
from ..ir.universe import bits
from .base import BaseSolver, PointsToResult

_COPY = int(PrimitiveKind.COPY)
_ADDR = int(PrimitiveKind.ADDR)
_STORE = int(PrimitiveKind.STORE)
_LOAD = int(PrimitiveKind.LOAD)


class _Ecr:
    """Union-find location class with flow edges and direct lvals."""

    __slots__ = ("parent", "rank", "pointee", "direct", "flow_out", "members")

    def __init__(self):
        self.parent: "_Ecr | None" = None
        self.rank = 0
        self.pointee: "_Ecr | None" = None
        self.direct = 0  # target-space bitmask of lvals assigned here
        self.flow_out: set["_Ecr"] = set()
        self.members: list[int] = []  # node ids in this class


class OneLevelFlowSolver(BaseSolver):
    """Das-style hybrid: directional top level, unified below."""

    name = "onelevel"
    precision = "over"  # one-level flow: sound per-object superset of Andersen

    def __init__(self, store: ConstraintStore):
        super().__init__(store)
        self._ecrs: dict[int, _Ecr] = {}  # node id -> class
        self._target_nodes: dict[int, int] = {}  # target id -> node id

    # -- union-find -----------------------------------------------------------

    def _ecr(self, node: int) -> _Ecr:
        e = self._ecrs.get(node)
        if e is None:
            e = _Ecr()
            e.members.append(node)
            self._ecrs[node] = e
        return self._find(e)

    @staticmethod
    def _find(e: _Ecr) -> _Ecr:
        root = e
        while root.parent is not None:
            root = root.parent
        while e.parent is not None:
            e.parent, e = root, e.parent
        return root

    def _pointee(self, e: _Ecr) -> _Ecr:
        e = self._find(e)
        if e.pointee is None:
            e.pointee = _Ecr()
        return self._find(e.pointee)

    def _join(self, a: _Ecr, b: _Ecr) -> _Ecr:
        stack = [(a, b)]
        first: _Ecr | None = None
        while stack:
            x, y = stack.pop()
            x, y = self._find(x), self._find(y)
            if x is y:
                if first is None:
                    first = x
                continue
            if x.rank < y.rank:
                x, y = y, x
            y.parent = x
            if x.rank == y.rank:
                x.rank += 1
            x.direct |= y.direct
            x.flow_out |= y.flow_out
            x.members.extend(y.members)
            y.direct = 0
            y.flow_out = set()
            y.members = []
            self.stats.cycles_collapsed += 1
            py, y.pointee = y.pointee, None
            if py is not None:
                if x.pointee is None:
                    x.pointee = py
                else:
                    stack.append((x.pointee, py))
            if first is None:
                first = x
        return first if first is not None else self._find(a)

    def _flow(self, src: _Ecr, dst: _Ecr) -> None:
        src, dst = self._find(src), self._find(dst)
        if src is dst or dst in src.flow_out:
            return
        src.flow_out.add(dst)
        self.stats.edges_added += 1

    # -- constraints -----------------------------------------------------------

    def _target_node(self, t: int) -> int:
        node = self._target_nodes.get(t)
        if node is None:
            node = self.universe.intern(self.universe.target_name(t))
            self._target_nodes[t] = node
        return node

    def _ingest_row(self, kind: int, dst: int, src: int) -> None:
        """One id-space constraint row (``src`` is a target id for ADDR)."""
        self.stats.constraints += 1
        if kind == _ADDR:
            x = self._ecr(dst)
            x.direct |= 1 << src
            self._join(self._pointee(x), self._ecr(self._target_node(src)))
        elif kind == _COPY:
            x, y = self._ecr(dst), self._ecr(src)
            self._flow(y, x)
            self._join(self._pointee(x), self._pointee(y))
        elif kind == _STORE:  # *p = y
            p, y = self._ecr(dst), self._ecr(src)
            cell = self._pointee(p)
            self._flow(y, cell)
            self._join(self._pointee(y), self._pointee(cell))
        elif kind == _LOAD:  # x = *p
            x, p = self._ecr(dst), self._ecr(src)
            cell = self._pointee(p)
            self._flow(cell, x)
            self._join(self._pointee(x), self._pointee(cell))
        else:  # STORE_LOAD: *p = *q
            p, q = self._ecr(dst), self._ecr(src)
            p_cell, q_cell = self._pointee(p), self._pointee(q)
            self._flow(q_cell, p_cell)
            self._join(self._pointee(q_cell), self._pointee(p_cell))

    def _ingest_link_copy(self, dst: str, src: str) -> None:
        """A funcptr-link copy constraint arriving mid-solve, by name."""
        universe = self.universe
        if not universe.may_point(dst) or not universe.may_point(src):
            return
        self._ingest_row(_COPY, universe.intern(dst), universe.intern(src))

    # -- solving ---------------------------------------------------------------

    def solve(self) -> PointsToResult:
        self._emit_begin()
        batch = self._ingest_all_ids()
        for kind, dst, src in batch.rows():
            self._ingest_row(kind, dst, src)

        universe = self.universe
        target_name = universe.target_name
        while True:
            self.stats.rounds += 1
            pts = self._propagate()
            new_constraints: list[tuple[str, str]] = []
            for fp in self._funcptrs:
                fp_node = universe.id_of(fp)
                mask = pts.get(fp_node, 0) if fp_node is not None else 0
                funcs = mask & universe.function_mask
                callees = [target_name(b) for b in bits(funcs)]
                new_constraints.extend(self._linker.link(fp, callees))
            if not new_constraints:
                self._emit_round()
                break
            for dst, src in new_constraints:
                self.stats.funcptr_links += 1
                self._ingest_link_copy(dst, src)
            self._emit_round()

        self.store.discard(0)
        return self._result(pts)

    def _propagate(self) -> dict[int, int]:
        """Forward-propagate direct lval masks along flow edges, then read
        off per-node points-to masks (the one transitive pass Das pays
        for his directionality)."""
        roots: dict[int, _Ecr] = {}
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
        pts: dict[int, int] = {}
        for root in roots.values():
            targets = value.get(id(root), 0)
            for member in root.members:
                pts[member] = targets
        return pts

    def _result(self, pts: dict[int, int]) -> PointsToResult:
        name_of = self.universe.name_of
        masks: dict[str, int] = {}
        for node, mask in pts.items():
            name = name_of(node)
            if not name.startswith("$sl"):
                masks[name] = mask
        return self._finalize_masks(masks)


def solve(store: ConstraintStore) -> PointsToResult:
    return OneLevelFlowSolver(store).solve()
