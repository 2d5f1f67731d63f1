"""Common solver infrastructure.

Every points-to solver consumes a :class:`~repro.cla.store.ConstraintStore`
and produces a :class:`PointsToResult`.  Shared here:

* :class:`BaseSolver` — the skeleton all four solvers extend: store +
  uniform :class:`~repro.engine.stats.SolverStats` + the interned
  :class:`~repro.ir.universe.ObjectUniverse`, fed by one
  :meth:`~repro.cla.store.ConstraintStore.object_flags` call; the
  full-database intake of the non-demand solvers
  (:meth:`BaseSolver._ingest_all_ids`, a stream of id-space rows);
  analysis-time function-pointer linking (:meth:`BaseSolver._link` and
  :meth:`BaseSolver._copy_ids`); and the result hooks
  (:meth:`BaseSolver._finalize_nodes`, :meth:`BaseSolver._finalize_masks`)
  that wrap the final id-space bitmasks in a lazily-decoding result
  mapping and snapshot the CLA load accounting into the stats record.
* :class:`PointsToResult` — the uniform output record.  Every solver
  builds its ``pts`` mapping as a :class:`LazyPointsTo` view over solver
  bitmasks, and its ``objects`` as a :class:`LazyObjects` view over the
  store, both of which behave like plain dicts (``Mapping`` protocol,
  equality included), so the oracle, tables, report and CLI are
  agnostic; the dependence analysis's reverse index is built from the
  masks, once per result.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Collection, Iterable, Iterator

from ..cla.store import ConstraintStore
from ..engine.events import (
    EVENTS,
    SolverBeginEvent,
    SolverEndEvent,
    SolverRoundEvent,
)
from ..engine.stats import SolverStats
from ..ir.objects import ProgramObject
from ..ir.primitives import PrimitiveKind
from ..ir.universe import ObjectUniverse, bits, bitset_words


class LazyPointsTo(Mapping):
    """A ``name -> frozenset(names)`` view over id-space bitmasks.

    Keys are eager (the solver's masks are keyed by name); values decode
    on first access through the universe's shared cache, so identical
    masks yield one frozenset and consumers that only *count* (Table 3)
    never materialise names at all.
    """

    __slots__ = ("_masks", "_universe", "_sorted")

    def __init__(self, masks: dict[str, int], universe: ObjectUniverse):
        self._masks = masks
        self._universe = universe
        #: mask -> its target names in name order
        self._sorted: dict[int, tuple[str, ...]] = {}

    def __getitem__(self, name: str) -> frozenset[str]:
        return self._universe.decode(self._masks[name])

    def __iter__(self):
        return iter(self._masks)

    def __len__(self) -> int:
        return len(self._masks)

    def __contains__(self, name) -> bool:
        return name in self._masks

    # -- count-only fast paths (no decode) ------------------------------

    def target_count(self, name: str) -> int:
        """len(pts(name)) without decoding the set."""
        return self._masks[name].bit_count()

    # -- the dependence analysis's views ---------------------------------

    def sorted_targets(self, name: str) -> tuple[str, ...]:
        """pts(name) in name order; pointers with equal sets share one
        tuple, kept for the life of the mapping."""
        mask = self._masks.get(name, 0)
        ordered = self._sorted.get(mask)
        if ordered is None:
            ordered = self._sorted[mask] = tuple(
                sorted(self._universe.decode(mask)))
        return ordered

    def pointed_by(self) -> dict[str, tuple[str, ...]]:
        """target -> the pointers whose sets hold it, in name order.

        Pointers with equal masks form one group, so each distinct set is
        decoded once however many pointers share it.  The decode goes
        through the universe's shared cache, so later lookups of any
        pointer's set are cache hits."""
        groups: dict[int, list[str]] = {}
        for name, mask in self._masks.items():
            if mask:
                groups.setdefault(mask, []).append(name)
        by_target: dict[str, list[str]] = {}
        decode = self._universe.decode
        for mask, pointers in groups.items():
            for target in decode(mask):
                by_target.setdefault(target, []).extend(pointers)
        return {target: tuple(sorted(pointers))
                for target, pointers in by_target.items()}


class LazyObjects(Mapping):
    """``name -> ProgramObject`` for each of a result's names that the
    store knows, in the result's order.

    It reads as the eager ``{n: get_object(n) for n in names if
    get_object(n) is not None}`` does (keys, order, items, equality), but
    an object is asked of the store only when it is read, so a solve
    decodes no object.  The store decodes an object once and keeps it,
    and a :class:`~repro.cla.reader.DatabaseStore` decodes from its own
    copy of the ``global`` entries, so this also reads after the store is
    closed.
    """

    __slots__ = ("_names", "_get_object", "_keys")

    def __init__(self, names: Collection[str],
                 get_object: Callable[[str], ProgramObject | None]):
        self._names = names
        self._get_object = get_object
        self._keys: list[str] | None = None

    def __getitem__(self, name: str) -> ProgramObject:
        obj = self._get_object(name) if name in self._names else None
        if obj is None:
            raise KeyError(name)
        return obj

    def __contains__(self, name) -> bool:
        return name in self._names and self._get_object(name) is not None

    def _known(self) -> list[str]:
        keys = self._keys
        if keys is None:
            get_object = self._get_object
            keys = self._keys = [
                name for name in self._names if get_object(name) is not None]
        return keys

    def __iter__(self) -> Iterator[str]:
        return iter(self._known())

    def __len__(self) -> int:
        return len(self._known())


@dataclass
class PointsToResult:
    """The output of a points-to analysis."""

    solver: str
    pts: Mapping[str, frozenset[str]]
    stats: SolverStats = field(default_factory=SolverStats)
    #: Object metadata for reporting (name -> ProgramObject).
    objects: Mapping[str, ProgramObject] = field(default_factory=dict)
    #: The store's compiler temporaries, which Table 3 does not count.
    temps: frozenset[str] = frozenset()
    #: (pointer, target) pairs in the reverse index, once it is built
    pointed_by_pairs: int = field(default=0, init=False, compare=False)
    _pointed_by: dict[str, tuple[str, ...]] | None = field(
        default=None, init=False, repr=False, compare=False)

    def points_to(self, name: str) -> frozenset[str]:
        return self.pts.get(name, frozenset())

    def may_alias(self, a: str, b: str) -> bool:
        """Two pointers may alias iff their points-to sets intersect."""
        return bool(self.points_to(a) & self.points_to(b))

    def _target_counter(self):
        """len(pts(name)) without decoding, when the mapping supports it."""
        counter = getattr(self.pts, "target_count", None)
        if counter is not None:
            return counter
        return lambda name: len(self.pts[name])

    def pointer_variables(self) -> int:
        """Table 3 column 1: program objects (variables and fields, no
        temporaries) with non-empty points-to sets."""
        count = 0
        counted = self._target_counter()
        temps = self.temps
        for name in self.pts:
            if name not in temps and counted(name):
                count += 1
        return count

    def points_to_relations(self) -> int:
        """Table 3 column 2: total points-to set sizes over those objects."""
        total = 0
        counted = self._target_counter()
        temps = self.temps
        for name in self.pts:
            if name not in temps:
                total += counted(name)
        return total

    def pointed_by(self) -> dict[str, tuple[str, ...]]:
        """Reverse index: target object -> the pointers that may point to
        it, in name order.

        The dependence analysis uses this to find the loads ``x = *p``
        relevant to a newly dependent object (§4's sketch).  It is built
        from the id-space masks the first time it is asked for and kept
        with the result, so every chain over one fixpoint shares it.
        """
        index = self._pointed_by
        if index is None:
            index = self._pointed_by = self.pts.pointed_by()
            self.pointed_by_pairs = sum(map(len, index.values()))
        return index

    @property
    def pointed_by_built(self) -> bool:
        """Whether :meth:`pointed_by` has built this result's index."""
        return self._pointed_by is not None


class BaseSolver:
    """Skeleton shared by all four solvers.

    Subclasses consume constraints either through the id-space row
    stream (:meth:`_ingest_all_ids`, the non-demand solvers) or by
    demand-loading blocks themselves (the pre-transitive solver); all of
    them link function pointers through :meth:`_link`, and report results
    through :meth:`_finalize_nodes` (node-id keyed bitmasks) or
    :meth:`_finalize_masks` (name keyed), the single seam the stats layer
    hangs off.
    """

    name = "base"

    #: How the result relates to Andersen's least subset-based model:
    #: ``"andersen"`` solvers compute it exactly (and must agree bit for
    #: bit); ``"over"`` solvers compute a sound per-object superset
    #: (unification merges).  The checker (:mod:`repro.checker`) uses this
    #: to pick its comparison: exact equality, superset, and whether the
    #: no-spurious-targets minimality check applies.  Either way the
    #: result must be a *closed* model, so the soundness oracle applies to
    #: every solver.
    precision = "andersen"

    #: Worklist solvers count a "round" per pop; emitting an event for
    #: every pop would drown the bus, so their loops emit one
    #: :class:`SolverRoundEvent` per ``_ROUND_EVENT_MASK + 1`` pops
    #: (power of two: the guard is one AND).  Iterative solvers emit per
    #: literal outer round.
    _ROUND_EVENT_MASK = 0xFFF

    def __init__(self, store: ConstraintStore):
        self.store = store
        self.stats = SolverStats(solver=self.name)
        flags = store.object_flags()
        self.universe = ObjectUniverse(flags.non_pointers)
        self.universe.note_functions(flags.functions)
        self._funcptrs = flags.funcptrs
        self._temps = flags.temps
        #: (pointer, callee) pairs already linked
        self._linked: set[tuple[str, str]] = set()
        #: (record attribute, name) -> the block's call record, or None
        self._records: dict[tuple[str, str], object] = {}
        #: previous (edges, hits, misses, cycles, delta_lvals, nodes)
        #: snapshot, for per-round event deltas
        self._round_mark = (0, 0, 0, 0, 0, 0)

    # -- constraint intake ----------------------------------------------------

    def _ingest_all_ids(self) -> Iterator[tuple[PrimitiveKind, int, int]]:
        """Full (non-demand) loading, straight into id space.

        Yields ``(kind, dst, src)`` for every relevant row (§6), statics
        first, then each block in store order.  ``dst`` and ``src`` are
        node ids, except that an ADDR row's ``src`` is a *target* id: the
        address-taken object is a points-to bit position.  This is the
        one place these solvers turn names into ids, each name once per
        row, destination first.

        The transitively-closed baselines propagate eagerly and have no
        natural point to demand-load from (§4's contrast with prior
        architectures), so they ingest the whole database up front.  Each
        block is requested exactly once and read as it streams, so even a
        tiny-budget :class:`~repro.cla.cache.BlockCache` in front of the
        store keeps ``in_core`` bounded here: blocks pass through the
        cache and are evicted behind the scan.
        """
        universe = self.universe
        intern = universe.intern
        target_id = universe.target_id
        relevant = universe.relevant
        addr = PrimitiveKind.ADDR
        store = self.store
        statics = store.static_triples()
        blocks = map(store.load_triples, list(store.block_names()))
        for triples in chain([statics], blocks):
            for kind, dst, src in relevant(triples):
                dst = intern(dst)
                yield kind, dst, target_id(src) if kind is addr else intern(src)

    # -- function-pointer linking (§4) ----------------------------------------

    def _record(self, attr: str, name: str):
        """``name``'s block's ``function_record``/``indirect_record``
        (None without one), loaded at most once per solve."""
        key = (attr, name)
        if key not in self._records:
            block = self.store.load_block(name)
            self._records[key] = getattr(block, attr, None)
        return self._records[key]

    def _link(self, pointer: str, mask: int) -> list[tuple[str, str]]:
        """Link the functions in ``mask`` as callees of ``pointer``.

        When ``g`` lands in the points-to set of a pointer ``f`` used at
        an indirect call site, link ``g$argN = <f>$argN`` and
        ``<f>$ret = g$ret``.  Returns those ``(dst, src)`` copy pairs for
        every callee not linked to ``pointer`` before, and counts them in
        ``funcptr_links``.
        """
        record = self._record("indirect_record", pointer)
        if record is None:
            return []
        links: list[tuple[str, str]] = []
        target_names = self.universe.target_names
        for t in bits(mask & self.universe.function_mask):
            key = (pointer, target_names[t])
            if key in self._linked:
                continue
            self._linked.add(key)
            callee = self._record("function_record", key[1])
            if callee is None:
                continue  # not a function after all (imprecision artifact)
            links.extend(zip(callee.args, record.args))
            links.append((record.ret, callee.ret))
        self.stats.funcptr_links += len(links)
        return links

    def _copy_ids(
        self, links: Iterable[tuple[str, str]]
    ) -> list[tuple[int, int]]:
        """The ``(dst, src)`` node ids of the link pairs that can carry a
        pointer value, source interned first."""
        universe = self.universe
        may_point = universe.may_point
        intern = universe.intern
        out = []
        for dst, src in links:
            if may_point(dst) and may_point(src):
                src_id = intern(src)
                out.append((intern(dst), src_id))
        return out

    # -- the run-ledger seam ---------------------------------------------------

    def _begin(self) -> None:
        """Start a solve: the store counts this solve's reads afresh
        (Table 3's columns describe one solve, also when a store is
        solved again), and a :class:`SolverBeginEvent` is published
        (no-op with no sinks)."""
        self.store.restart_counts()
        if EVENTS:
            EVENTS.emit(SolverBeginEvent(
                solver=self.name, in_file=self.store.stats.in_file
            ))

    def _emit_round(self) -> None:
        """Publish one :class:`SolverRoundEvent` with per-round deltas.

        Callers on per-pop worklist hot paths pre-guard with the
        ``_ROUND_EVENT_MASK`` batch check; the bus check here keeps the
        no-sink cost to a single truthiness test either way.
        """
        if not EVENTS:
            return
        s = self.stats
        mark = self._round_mark
        cur = (s.edges_added, s.cache_hits, s.cache_misses,
               s.cycles_collapsed, s.delta_lvals_processed, s.nodes_visited)
        self._round_mark = cur
        hits = cur[1] - mark[1]
        misses = cur[2] - mark[2]
        queries = hits + misses
        EVENTS.emit(SolverRoundEvent(
            solver=self.name,
            round=s.rounds,
            edges_added=cur[0] - mark[0],
            delta_lvals=cur[4] - mark[4],
            lval_cache_hits=hits,
            lval_cache_misses=misses,
            cache_hit_rate=hits / queries if queries else 0.0,
            cycles_collapsed=cur[3] - mark[3],
            nodes_visited=cur[5] - mark[5],
            constraints=s.constraints,
            blocks_loaded=self.store.stats.blocks_loaded,
        ))

    # -- the shared reporting hook ---------------------------------------------

    def _finalize_nodes(self, masks: dict[int, int]) -> PointsToResult:
        """:meth:`_finalize_masks` over node-id keys, without the ``$sl``
        store/load split temps (they are not program objects)."""
        names = self.universe.names
        by_name = {}
        for node, mask in masks.items():
            name = names[node]
            if not name.startswith("$sl"):
                by_name[name] = mask
        return self._finalize_masks(by_name)

    def _finalize_masks(self, masks: dict[str, int]) -> PointsToResult:
        """Wrap final id-space bitmasks in a lazily-decoding result.

        Values decode back to str-keyed frozensets only on access; Table 3
        counting goes through popcounts.  The intern/bitset footprint
        counters are filled here, off the hot path.
        """
        universe = self.universe
        self.stats.interned_objects = len(universe)
        self.stats.interned_targets = universe.target_count
        self.stats.bitset_words = sum(
            bitset_words(mask) for mask in masks.values()
        )
        return self._finalize(LazyPointsTo(masks, universe))

    def _finalize(self, pts: Mapping) -> PointsToResult:
        """Build the result record: snapshot the CLA load accounting into
        the uniform stats, publish to the process registry, attach the
        object metadata as a view that asks the store for an object only
        when it is read.

        The snapshot includes the keep-or-discard fields (reloads, peak
        residency, cache hits/misses/evictions) so Table 3 and the
        ``--stats`` line read one schema whether the store is plain or
        wrapped in a :class:`~repro.cla.cache.BlockCache`.
        """
        self.stats.absorb_load_stats(self.store.stats)
        self.stats.publish()
        if EVENTS:
            EVENTS.emit(SolverEndEvent(
                solver=self.name,
                rounds=self.stats.rounds,
                stats=self.stats.as_dict(),
            ))
        return PointsToResult(
            solver=self.name,
            pts=pts,
            stats=self.stats,
            objects=LazyObjects(pts, self.store.get_object),
            temps=self._temps,
        )
