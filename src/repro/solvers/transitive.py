"""Baseline: worklist Andersen's analysis over a transitively-closed graph.

This is the algorithm family the paper improves on (§5: "Previous
algorithms in the literature for Andersen's analysis are based on a
transitively closed constraint graph e.g. [4, 10, 11, 21, 23, 22]").
Points-to sets are materialised at every node and propagated along
inclusion edges with difference propagation; complex assignments add new
edges as the sets they watch grow.

No cycle elimination is performed — that was precisely the expensive part
in the transitive setting ("the cost of finding cycles is non-trivial",
§5) — which is what the solver-comparison bench demonstrates.

Unlike the pre-transitive solver, this baseline loads the entire database
up front: a transitively-closed algorithm propagates eagerly and has no
natural point to demand-load from (§4's contrast with prior architectures).

Representation (the integer core, ROADMAP item 2): constraints arrive
as id-space rows through the shared
:class:`~repro.ir.universe.ObjectUniverse`; both the per-node successor
sets and the points-to/delta sets are int bitmasks, so propagation is
word-parallel ``|``/``& ~`` instead of per-element set algebra.  That core is the
bit-vector implementation §4 mentions; it is shared by every solver, so it
no longer needs a solver of its own.
"""

from __future__ import annotations

from collections import deque

from ..cla.store import ConstraintStore
from ..ir.primitives import PrimitiveKind
from ..ir.universe import bits
from .base import BaseSolver, PointsToResult

_COPY = PrimitiveKind.COPY
_ADDR = PrimitiveKind.ADDR
_LOAD = PrimitiveKind.LOAD
_STORE = PrimitiveKind.STORE


class TransitiveSolver(BaseSolver):
    """Set-based worklist Andersen baseline (int-bitmask representation)."""

    name = "transitive"
    precision = "andersen"

    def __init__(self, store: ConstraintStore):
        super().__init__(store)
        #: node id -> target-space points-to bitmask
        self._pts: dict[int, int] = {}
        self._delta: dict[int, int] = {}
        #: node id -> node-space successor bitmask (pts flows src -> dst)
        self._succ: dict[int, int] = {}
        self._loads_on: dict[int, list[int]] = {}  # p -> [x : x = *p]
        self._stores_on: dict[int, list[int]] = {}  # p -> [y : *p = y]
        self._worklist: deque[int] = deque()
        self._queued: set[int] = set()
        self._funcptr_ids: set[int] = set()

    # -- constraint intake ---------------------------------------------------

    def _seed(self) -> None:
        """Ingest the whole database in id space, in row order.

        A COPY row only sets its successor bit: deferring propagation to
        the worklist is safe, because before the first pop every node's
        delta equals its full points-to set, so the fixpoint is unchanged.
        """
        succ = self._succ
        stats = self.stats
        for kind, dst, src in self._ingest_all_ids():
            if kind is _COPY:  # copies dominate
                mask = succ.get(src, 0)
                bit = 1 << dst
                if not mask & bit:  # linked units repeat COPY rows
                    succ[src] = mask | bit
                    stats.edges_added += 1
            elif kind is _ADDR:
                self._add_pts(dst, 1 << src)  # src is a target-space id
            elif kind is _LOAD:
                self._add_load(dst, src)
            elif kind is _STORE:
                self._add_store(dst, src)
            else:
                # *p = *q  ==>  t = *q; *p = t  (split, as in §5)
                t = self.universe.fresh_temp()
                self._add_load(t, src)
                self._add_store(dst, t)

    def _add_load(self, x: int, p: int) -> None:
        self._loads_on.setdefault(p, []).append(x)
        self.stats.constraints += 1
        self._replay(p)

    def _add_store(self, p: int, y: int) -> None:
        self._stores_on.setdefault(p, []).append(y)
        self.stats.constraints += 1
        self._replay(p)

    def _replay(self, p: int) -> None:
        """A new complex constraint on ``p``: replay its current targets."""
        mask = self._pts.get(p, 0)
        if mask:
            self._delta[p] = self._delta.get(p, 0) | mask
            self._enqueue(p)

    def _add_edge(self, src: int, dst: int) -> bool:
        mask = self._succ.get(src, 0)
        bit = 1 << dst
        if mask & bit:
            return False
        self._succ[src] = mask | bit
        self.stats.edges_added += 1
        current = self._pts.get(src, 0)
        if current:
            self._add_pts(dst, current)
        return True

    def _add_pts(self, node: int, mask: int) -> None:
        mine = self._pts.get(node, 0)
        new = mask & ~mine
        if not new:
            return
        self._pts[node] = mine | new
        self._delta[node] = self._delta.get(node, 0) | new
        self._enqueue(node)

    def _enqueue(self, node: int) -> None:
        if node not in self._queued:
            self._queued.add(node)
            self._worklist.append(node)

    # -- solving ------------------------------------------------------------

    def solve(self) -> PointsToResult:
        self._begin()
        self._seed()
        self._collect_funcptrs()

        universe = self.universe
        target_node = universe.target_node
        while self._worklist:
            self.stats.rounds += 1
            if not self.stats.rounds & self._ROUND_EVENT_MASK:
                self._emit_round()  # one event per pop batch
            node = self._worklist.popleft()
            self._queued.discard(node)
            delta = self._delta.pop(node, 0)
            if not delta:
                continue
            # Propagate along inclusion edges (transitive closure step).
            # bits() is inlined here: the generator's frame overhead is
            # measurable on this, the hottest loop in the solver.
            succ_mask = self._succ.get(node, 0)
            add_pts = self._add_pts
            while succ_mask:
                low = succ_mask & -succ_mask
                add_pts(low.bit_length() - 1, delta)
                succ_mask ^= low
            # Complex constraints watching this pointer.
            loads = self._loads_on.get(node)
            stores = self._stores_on.get(node)
            if loads or stores:
                target_nodes = [target_node(z) for z in bits(delta)]
                for x in loads or ():
                    for z in target_nodes:
                        self._add_edge(z, x)
                for y in stores or ():
                    for z in target_nodes:
                        self._add_edge(y, z)
            # Function pointers gaining callees.
            if node in self._funcptr_ids and delta & universe.function_mask:
                links = self._link(universe.name_of(node), delta)
                for dst, src in self._copy_ids(links):
                    self._add_edge(src, dst)

        self._emit_round()  # the final (possibly partial) pop batch
        self.store.discard(self.stats.constraints)
        return self._finalize_nodes(self._pts)

    def _collect_funcptrs(self) -> None:
        # Intern every funcptr up front so late-flowing pointers are
        # recognised when they pop; replay already-known targets.
        for name in self._funcptrs:
            fp = self.universe.intern(name)
            self._funcptr_ids.add(fp)
            self._replay(fp)
