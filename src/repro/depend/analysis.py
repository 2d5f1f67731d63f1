"""Forward data-dependence analysis (paper §2).

Given a *target* object whose type is to be changed, find every object that
can be assigned a value derived from it, each with its best dependence
chain: chains are compared first by importance — the weakest edge on the
path, per Table 1 — then by length ("Our analysis computes the most
important path, and if there are several paths of the same importance, we
compute the shortest path").

*Non-targets* (§2) are objects the user asserts are not dependent; the
search never expands through them, which cuts the join-point fan-out that
makes raw dependence sets unusably large.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from ..cla.store import ConstraintStore
from ..ir.strength import Strength
from ..solvers.base import PointsToResult
from .graph import DependenceEdge, DependenceGraph

#: Strengths by rank: the search relaxes edges on the members' integer
#: values (NONE 0 .. DIRECT 3, in definition order) and turns a rank back
#: into its member only for the dependents it records.
_BY_RANK = tuple(Strength)
_DIRECT = Strength.DIRECT


@dataclass(slots=True)
class Dependent:
    """One object reachable from the target, with its best chain."""

    name: str
    strength: Strength  # importance of the best chain (min edge strength)
    distance: int  # hops on the best chain
    parent: str | None  # previous object on the best chain (None: target)
    via: DependenceEdge | None  # edge used to reach this object


@dataclass
class DependenceResult:
    """All dependents of one analysis run."""

    targets: list[str]
    non_targets: frozenset[str]
    dependents: dict[str, Dependent] = field(default_factory=dict)
    blocks_loaded: int = 0

    def chain(self, name: str) -> list[Dependent]:
        """The best chain from ``name`` back to a target (inclusive)."""
        out: list[Dependent] = []
        current: str | None = name
        while current is not None:
            d = self.dependents.get(current)
            if d is None:
                break
            out.append(d)
            current = d.parent
        return out

    def prioritized(self) -> list[Dependent]:
        """Dependents ordered most-important-first (§2's prioritisation):
        stronger chains first, then shorter, then by name for determinism."""
        return sorted(
            (d for d in self.dependents.values() if d.parent is not None),
            key=lambda d: (-d.strength._value_, d.distance, d.name),
        )

    def is_dependent(self, name: str) -> bool:
        d = self.dependents.get(name)
        return d is not None and d.parent is not None


class DependenceAnalysis:
    """Runs forward-dependence queries against one points-to result.

    Targets are canonical object names; ``store.find_targets`` maps a
    source-level name to them through the target-section hashtable (one
    lookup, §4), which is what :meth:`repro.engine.pipeline.Pipeline.depend`
    does for a query by name."""

    def __init__(self, store: ConstraintStore, points_to: PointsToResult):
        self.store = store
        self.points_to = points_to

    def analyze(
        self,
        targets: list[str],
        non_targets: list[str] | frozenset[str] = frozenset(),
        min_strength: Strength = Strength.WEAK,
    ) -> DependenceResult:
        """Compute all dependents of ``targets``.

        Best-first search with lexicographic priority (importance
        descending, length ascending): a node is settled the first time it
        is popped, which is with its best possible chain because edge
        relaxation can only weaken importance and lengthen paths.  Of two
        equally good chains the one relaxed first wins, and
        :class:`DependenceGraph` yields edges in a fixed order, so the
        answer is the same in every process.

        ``min_strength`` prunes edges below the threshold: a path is as
        strong as its weakest edge, so requiring every edge to clear the
        bar is the same as requiring the chain to (§2's triage — often
        only direct/strong chains are worth an engineer's time).
        """
        non_target_set = frozenset(non_targets)
        graph = DependenceGraph(self.store, self.points_to)
        result = DependenceResult(targets=list(targets),
                                  non_targets=non_target_set)
        dependents = result.dependents
        floor = min_strength._value_
        direct = _DIRECT._value_
        push, pop = heapq.heappush, heapq.heappop
        # (-rank, distance, name): the smallest is the best chain
        heap: list[tuple[int, int, str]] = []
        best: dict[str, tuple[int, int]] = {}
        for t in targets:
            dependents[t] = Dependent(
                name=t, strength=_DIRECT, distance=0, parent=None, via=None,
            )
            best[t] = (-direct, 0)
            push(heap, (-direct, 0, t))
        settled: set[str] = set()
        while heap:
            neg_rank, distance, name = pop(heap)
            if name in settled:
                continue
            settled.add(name)
            rank = -neg_rank
            hops = distance + 1
            for edge in graph.successors(name):
                dep = edge.dependent
                if dep in settled or dep in non_target_set:
                    continue
                edge_rank = edge.strength._value_
                if edge_rank < floor:
                    continue
                # A chain is as strong as its weakest edge.
                chain_rank = edge_rank if edge_rank < rank else rank
                key = (-chain_rank, hops)
                known = best.get(dep)
                if known is not None and known <= key:
                    continue
                best[dep] = key
                dependents[dep] = Dependent(
                    name=dep, strength=_BY_RANK[chain_rank], distance=hops,
                    parent=name, via=edge,
                )
                push(heap, (-chain_rank, hops, dep))
        result.blocks_loaded = graph.blocks_loaded
        self._collapse_temporaries(result)
        return result

    def _collapse_temporaries(self, result: DependenceResult) -> None:
        """Compiler temporaries are implementation detail: splice them out
        of reported chains (their parent links skip to real objects)."""
        from ..ir.objects import ObjectKind

        def is_temp(name: str) -> bool:
            obj = self.store.get_object(name)
            return obj is not None and obj.kind == ObjectKind.TEMP

        temp_names = {n for n in result.dependents if is_temp(n)}
        if not temp_names:
            return
        for d in result.dependents.values():
            hops = 0
            while d.parent in temp_names and hops < len(result.dependents):
                parent_dep = result.dependents[d.parent]
                d.parent = parent_dep.parent
                hops += 1
        for name in temp_names:
            del result.dependents[name]

