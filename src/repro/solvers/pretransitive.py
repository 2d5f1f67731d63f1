"""The pre-transitive graph algorithm for Andersen's analysis (paper §5).

The constraint graph ``G`` is **never transitively closed**.  Simple
assignments ``x = y`` become edges ``nx -> ny``; base assignments
``x = &y`` populate ``baseElements(nx)``; complex assignments are kept in a
set ``C`` and processed by the iteration algorithm of Figure 5:

    do {
        for *x = y in C: for &z in getLvals(nx): add edge nz -> ny
        for x = *y in C: add edge nx -> n?y (once);
                         for &z in getLvals(ny): add edge n?y -> nz
    } until no change

``getLvals(n)`` is graph reachability: the union of ``baseElements`` over
every node reachable from ``n``.  The two optimizations that make this
practical (§5: turning both off slows gimp down by a factor "in excess of
50K"):

* **caching** — lvals computed for a node during the current iteration are
  reused, even if stale; the outer loop's change flag repairs staleness;
* **complete cycle elimination** — every cycle in the traversed region is
  collapsed by node unification (skip pointers with path compression),
  "essentially free" because the traversal is happening anyway.  The
  traversal here is an iterative Tarjan SCC pass: it finds exactly the
  cycles of the visited region and never recurses (the paper's C
  implementation recursed; Python cannot afford to on million-assignment
  graphs).

A third optimization goes beyond the paper: **difference propagation**.
The Figure 5 loop re-walks every lval of every complex assignment each
round, even lvals already turned into edges in earlier rounds.  Each
complex assignment instead remembers the mask of lval ids it has already
processed and only handles ``getLvals(n) & ~seen`` per round — with lval
sets as int bitmasks over the shared target space (the integer core,
ROADMAP item 2) the delta is one word-parallel AND-NOT instead of a
Python loop of duplicate edge-add attempts.  Correctness is unaffected:
for a given constraint the edge peer is fixed (``ny`` for ``*x = y``,
``n?y`` for ``x = *y``), so a (constraint, lval) pair only ever needs one
edge add, and unification preserves the edge by merging successor sets.
Staleness repairs exactly like the caching optimization: lvals missing
from a stale mask are not in ``seen`` either, and the outer loop's change
flag forces another round that picks them up.

All three optimizations are independently toggleable for the ablation
bench.

Demand loading (§4): a dynamic block is loaded the first time its object
participates in pointer flow — it gains base elements, gains an edge, or
appears in a complex assignment.  Objects whose type cannot carry pointers
never trigger loads, which is how "non-pointer arithmetic assignments are
usually ignored".
"""

from __future__ import annotations

from collections import deque

from ..cla.store import ConstraintStore
from ..ir.primitives import PrimitiveKind
from ..ir.universe import bits
from .base import BaseSolver, PointsToResult

# Read once here: an Enum member read through its class costs several
# times a module global's, once per ingested row.
_COPY = PrimitiveKind.COPY
_ADDR = PrimitiveKind.ADDR
_LOAD = PrimitiveKind.LOAD
_STORE = PrimitiveKind.STORE
_STORE_LOAD = PrimitiveKind.STORE_LOAD


class _Node:
    """One graph node: a program object or a deref placeholder ``n?x``."""

    __slots__ = (
        "uid", "name", "base", "succ", "succ_uids", "skip",
        "cache_token", "cache",
        "t_stamp", "t_index", "t_low", "t_on_stack",
    )

    def __init__(self, uid: int, name: str):
        self.uid = uid
        self.name = name
        self.base = 0  # lval bitmask (target-space ids)
        self.succ: list[_Node] = []
        #: destination uids, for O(1) duplicate-edge checks without
        #: allocating key tuples (the paper's global edge hash, but kept
        #: per node so unification merges it naturally)
        self.succ_uids: set[int] = set()
        self.skip: "_Node | None" = None
        self.cache_token = 0  # 0 = never cached
        self.cache = 0  # lval bitmask, valid iff cache_token matches
        # Tarjan bookkeeping, stamped per query (never bulk-cleared).
        self.t_stamp = 0
        self.t_index = 0
        self.t_low = 0
        self.t_on_stack = False


class PreTransitiveSolver(BaseSolver):
    """Field-model-agnostic Andersen solver on a pre-transitive graph."""

    name = "pretransitive"
    precision = "andersen"

    def __init__(
        self,
        store: ConstraintStore,
        enable_cache: bool = True,
        enable_cycle_elimination: bool = True,
        enable_diff_propagation: bool = True,
        demand_load: bool = True,
    ):
        super().__init__(store)
        self.enable_cache = enable_cache
        self.enable_cycle_elimination = enable_cycle_elimination
        self.enable_diff_propagation = enable_diff_propagation
        self.demand_load = demand_load

        self._nodes: dict[str, _Node] = {}
        self._uid = 0
        #: complex assignments, resolved to nodes at intake so the Figure 5
        #: loop never round-trips through names.  Each entry is a mutable
        #: ``[lval_node, peer_node, is_store, seen]`` record: lvals are
        #: computed over ``lval_node``; edges run ``z -> peer`` for stores
        #: (*x = y) and ``peer -> z`` for loads (x = *y); ``seen`` is the
        #: bitmask of lval ids already turned into edges (difference
        #: propagation).
        self._complex: list[list] = []
        self._complex_keys: set[tuple[str, str, str]] = set()
        self._loaded: set[str] = set()
        self._load_queue: "deque[str]" = deque()
        self._draining = False
        self._round = 0
        self._cache_token = 0  # current validity token for node caches
        self._ephemeral_token = 0  # counts down for cache-disabled queries
        self._query_stamp = 0
        self._changed = False
        #: mask -> first-seen equal mask object (§5's common-set table);
        #: sharing the int object keeps equal caches cheap to compare and
        #: lets the decode cache in the universe collapse them to one
        #: frozenset.
        self._lval_interning: dict[int, int] = {}

        #: lval id -> its graph node (filled lazily); avoids a name
        #: round-trip on the hot getLvalsNodes path.  Ids are the shared
        #: universe's target space, so masks decode through it.
        self._obj_nodes: dict[int, _Node] = {}

    # ------------------------------------------------------------------
    # Node / object plumbing
    # ------------------------------------------------------------------

    def _node(self, name: str) -> _Node:
        node = self._nodes.get(name)
        if node is None:
            self._uid += 1
            node = _Node(self._uid, name)
            self._nodes[name] = node
            if not name.startswith("*"):
                # Canonical names join the shared universe so the
                # name <-> id round-trip (and intern stats) cover this
                # solver too; deref placeholders stay private.
                self.universe.intern(name)
        return self._find(node)

    def _deref_node(self, name: str) -> _Node:
        return self._node("*" + name)

    def _obj_uid(self, name: str) -> int:
        """Target-space id of an address-taken object (shared universe)."""
        return self.universe.target_id(name)

    @staticmethod
    def _find(node: _Node) -> _Node:
        """Follow skip pointers with path compression."""
        if node.skip is None:
            return node
        root = node
        while root.skip is not None:
            root = root.skip
        while node.skip is not None:
            node.skip, node = root, node.skip
        return root

    def _add_edge(self, src: _Node, dst: _Node) -> bool:
        if src.skip is not None:
            src = self._find(src)
        if dst.skip is not None:
            dst = self._find(dst)
        if src is dst or dst.uid in src.succ_uids:
            return False
        src.succ_uids.add(dst.uid)
        src.succ.append(dst)
        src.cache_token = 0  # reachability from src changed
        self.stats.edges_added += 1
        self._changed = True
        return True

    def _unify_scc(self, rep: _Node, members: list[_Node]) -> _Node:
        """Collapse a cycle into ``rep`` (skip-pointer unification).

        The cycle's own edges would now lead from ``rep`` to itself.
        They add no lval, so they go: every traversal would skip them,
        and, kept, each would close a reference cycle (``rep`` holds a
        member that skips back to it) that only the cycle collector
        frees.  The traversal de-skipped every member's edges, so an
        edge into the cycle names ``rep`` or one of its members."""
        succ = rep.succ
        for other in members:
            if other is rep:
                continue
            rep.base |= other.base
            succ.extend(other.succ)
            rep.succ_uids |= other.succ_uids
            other.base = 0
            other.succ = []
            other.succ_uids = set()
            other.skip = rep
            other.cache_token = 0
            self.stats.cycles_collapsed += 1
        rep.succ = [child for child in succ
                    if child is not rep and child.skip is not rep]
        return rep

    # ------------------------------------------------------------------
    # Loading (the CLA analyze-phase coupling)
    # ------------------------------------------------------------------

    def _ensure_loaded(self, name: str) -> None:
        """Demand-load the dynamic block of ``name`` (once).

        Loading one block can make further objects relevant; the cascade is
        drained iteratively through a queue — copy chains in real code
        bases are deeper than any recursion limit.

        ``self._loaded`` guarantees the solver itself requests each block
        at most once, so under a bounded
        :class:`~repro.cla.cache.BlockCache` the solve phase never
        reloads; re-reads come from later re-requests (function-pointer
        record lookups, the depend phase) hitting evicted blocks.
        """
        if name in self._loaded:
            return
        self._loaded.add(name)
        if not self.demand_load:
            return  # full preload happened in solve()
        self._load_queue.append(name)
        if self._draining:
            return
        self._draining = True
        try:
            while self._load_queue:
                self._ingest_block(self._load_queue.popleft())
        finally:
            self._draining = False

    def _ingest_block(self, name: str) -> None:
        self._ingest_rows(self.store.load_triples(name))

    def _ingest_rows(self, triples) -> None:
        """Rows through the shared intake: only those that can carry a
        pointer value reach the graph (§6)."""
        ingest = self._ingest_assignment
        for kind, dst, src in self.universe.relevant(triples):
            ingest(kind, dst, src)

    def _ingest_assignment(self, kind: PrimitiveKind, dst: str, src: str) -> None:
        """One relevant assignment into the graph."""
        if kind is _COPY:
            if self._add_edge(self._node(dst), self._node(src)):
                self._ensure_loaded(dst)
        elif kind is _ADDR:
            node = self._node(dst)
            bit = 1 << self._obj_uid(src)
            if not node.base & bit:
                node.base |= bit
                node.cache_token = 0
                self._changed = True
            self._ensure_loaded(dst)
        elif kind is _LOAD:
            self._add_complex("load", dst, src)
        elif kind is _STORE:
            self._add_complex("store", dst, src)
        elif kind is _STORE_LOAD:
            # *p = *q  ==>  t = *q; *p = t  (§5: "it can be split").
            t = self.universe.fresh_temp_name()
            self._add_complex("load", t, src)
            self._add_complex("store", dst, t)

    def _add_complex(self, kind: str, a: str, b: str) -> None:
        key = (kind, a, b)
        if key in self._complex_keys:
            return
        self._complex_keys.add(key)
        if kind == "load":
            # x = *p: lvals over p, edges n?p -> nz.  The edge nx -> n?p is
            # added once, outside the loop (Figure 5, note on line 7).
            deref = self._deref_node(b)
            self._complex.append([self._node(b), deref, False, 0])
            self._changed = True
            self._add_edge(self._node(a), deref)
            self._ensure_loaded(a)
        else:
            # *p = y: lvals over p, edges nz -> ny.
            self._complex.append([self._node(a), self._node(b),
                                  True, 0])
            self._changed = True
        self._ensure_loaded(b)

    # ------------------------------------------------------------------
    # getLvals: cached, cycle-eliminating graph reachability
    # ------------------------------------------------------------------

    def get_lvals(self, name: str) -> frozenset[str]:
        """Public query: the lvals (&-targets) reachable from an object."""
        node = self._nodes.get(name)
        if node is None:
            return frozenset()
        mask = self._lvals(self._find(node))
        return self.universe.decode(mask)

    def _query_token(self) -> int:
        """Cache-validity token for one top-level query.

        With caching on, results stay valid for the whole round; with
        caching off, each query gets a fresh token so nothing is reused
        across queries (but intra-query bookkeeping still works).
        """
        if self.enable_cache:
            return self._cache_token
        self._ephemeral_token -= 1
        return self._ephemeral_token

    def _lvals(self, node: _Node) -> int:
        self.stats.lval_queries += 1
        node = self._find(node)
        token = self._query_token()
        if node.cache_token == token:
            self.stats.cache_hits += 1
            return node.cache
        self.stats.cache_misses += 1
        if self.enable_cycle_elimination:
            return self._lvals_tarjan(node, token)
        return self._lvals_plain(node, token)

    def _intern(self, mask: int) -> int:
        """Share identical lval masks (§5's common-set table)."""
        return self._lval_interning.setdefault(mask, mask)

    def _lvals_tarjan(self, root: _Node, token: int) -> int:
        """Iterative Tarjan traversal; collapses every cycle it visits.

        Nodes whose cache carries the current token act as leaves.  SCCs
        finish in reverse-topological order, so when one pops, all its
        external successors are already final and its lvals can be sealed
        and cached.
        """
        self._query_stamp += 1
        stamp = self._query_stamp
        index_counter = 0
        scc_stack: list[_Node] = []
        frames: list[list] = []  # [node, next_child_cursor]
        pending: dict[int, int] = {}  # uid -> lval mask gathered so far

        def push(n: _Node) -> None:
            nonlocal index_counter
            self.stats.nodes_visited += 1
            n.t_stamp = stamp
            n.t_index = n.t_low = index_counter
            index_counter += 1
            n.t_on_stack = True
            scc_stack.append(n)
            pending[n.uid] = n.base
            frames.append([n, 0])

        push(root)
        result = 0
        while frames:
            frame = frames[-1]
            node: _Node = frame[0]
            descended = False
            succ = node.succ
            while frame[1] < len(succ):
                child = self._find(succ[frame[1]])
                succ[frame[1]] = child  # incremental de-skip (§5)
                frame[1] += 1
                if child is node:
                    continue  # self-loop left over from unification
                if child.cache_token == token:
                    pending[node.uid] |= child.cache
                    continue
                if child.t_stamp != stamp:
                    push(child)
                    descended = True
                    break
                if child.t_on_stack:
                    # Back edge: part of a cycle with ``node``.
                    if child.t_index < node.t_low:
                        node.t_low = child.t_index
                # else: finished in this query but unified away — its
                # canonical node carries the cache and was handled above.
            if descended:
                continue
            frames.pop()
            is_scc_root = node.t_low == node.t_index
            if is_scc_root:
                members: list[_Node] = []
                while True:
                    m = scc_stack.pop()
                    m.t_on_stack = False
                    members.append(m)
                    if m is node:
                        break
                lvals = 0
                for m in members:
                    lvals |= pending.pop(m.uid, 0)
                if len(members) > 1:
                    self._unify_scc(node, members)
                final = self._intern(lvals)
                node.cache = final
                node.cache_token = token
                self.stats.lvals_cached += 1
                result = final
                if frames:
                    parent = frames[-1][0]
                    pending[parent.uid] |= final
            elif frames:
                # Finished node inside a still-open SCC: its pending merges
                # when the SCC root pops; only the lowlink flows up now.
                parent = frames[-1][0]
                if node.t_low < parent.t_low:
                    parent.t_low = node.t_low
        return result

    def _lvals_plain(self, root: _Node, token: int) -> int:
        """No cycle elimination: plain iterative DFS over the reachable set.

        Per-node caching inside cycles would be unsound without collapsing
        them, so only the *root's* result is cached — which is exactly why
        this ablation is catastrophically slow (§5's >50,000x figure).
        """
        visited: set[int] = {root.uid}
        lvals = 0
        stack = [root]
        while stack:
            node = stack.pop()
            self.stats.nodes_visited += 1
            lvals |= node.base
            succ = node.succ
            for i in range(len(succ)):
                child = self._find(succ[i])
                succ[i] = child
                if child.uid not in visited:
                    visited.add(child.uid)
                    stack.append(child)
        result = self._intern(lvals)
        root.cache = result
        root.cache_token = token
        self.stats.lvals_cached += 1
        return result

    # ------------------------------------------------------------------
    # The iteration algorithm (Figure 5)
    # ------------------------------------------------------------------

    def solve(self) -> PointsToResult:
        self._begin()
        if not self.demand_load:
            # Full preload must happen before anything marks blocks as
            # loaded: _ensure_loaded is a no-op in this mode, so a block
            # skipped here would never be ingested at all.
            for name in list(self.store.block_names()):
                self._loaded.add(name)
                self._ingest_block(name)
        # Statics (always loaded) seed the base elements.
        self._ingest_rows(self.store.static_triples())

        diff = self.enable_diff_propagation
        stats = self.stats
        while True:
            self._round += 1
            self._cache_token = self._round
            self.stats.rounds = self._round
            self._changed = False
            self._lval_interning.clear()  # flushed each pass (§5)
            # Index-based iteration: demand loading may append to C.
            i = 0
            while i < len(self._complex):
                entry = self._complex[i]
                i += 1
                lval_node = entry[0]
                if lval_node.skip is not None:
                    entry[0] = lval_node = self._find(lval_node)
                lvals = self._lvals(lval_node)
                if diff:
                    seen = entry[3]
                    if seen:
                        fresh = lvals & ~seen
                        stats.lvals_skipped_by_diff += (
                            lvals.bit_count() - fresh.bit_count()
                        )
                        if not fresh:
                            continue
                    else:
                        fresh = lvals
                    entry[3] = seen | fresh
                else:
                    fresh = lvals
                stats.delta_lvals_processed += fresh.bit_count()
                peer = entry[1]
                if peer.skip is not None:
                    entry[1] = peer = self._find(peer)
                if entry[2]:  # store *a = b: edges z -> nb
                    for z in self._nodes_of(fresh):
                        if self._add_edge(z, peer):
                            self._ensure_loaded(z.name)
                else:  # load a = *b: edges n?b -> z
                    for z in self._nodes_of(fresh):
                        if self._add_edge(peer, z):
                            self._ensure_loaded(z.name)
            self._link_function_pointers()
            # One ledger event per Figure 5 round: the §5 convergence
            # curve (edges added, delta size, cache hit rate) as data.
            self._emit_round()
            if not self._changed:
                break

        self.stats.constraints = len(self._complex)
        # Report what the analyzer keeps (§4: complex assignments stay in
        # core, simple ones are folded into the graph and dropped).  On a
        # plain store this *is* the in-core figure; a BlockCache ignores
        # the report because its residency accounting is already exact.
        self.store.discard(len(self._complex))
        return self._result()

    def _nodes_of(self, mask: int) -> list[_Node]:
        """De-skipped graph nodes for a mask of lval object ids."""
        obj_nodes = self._obj_nodes
        target_name = self.universe.target_name
        find = self._find
        out = []
        for uid in bits(mask):
            cached = obj_nodes.get(uid)
            if cached is None:
                cached = self._node(target_name(uid))
                obj_nodes[uid] = cached
            elif cached.skip is not None:
                cached = find(cached)
                obj_nodes[uid] = cached
            out.append(cached)
        return out

    def _link_function_pointers(self) -> None:
        may_point = self.universe.may_point
        for pointer in self._funcptrs:
            node = self._nodes.get(pointer)
            if node is None:
                continue
            for dst, src in self._link(pointer, self._lvals(node)):
                if may_point(dst) and may_point(src):
                    self._ingest_assignment(_COPY, dst, src)
                self._ensure_loaded(dst)
                self._ensure_loaded(src)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def _result(self) -> PointsToResult:
        # One final pass computes all lvals for all nodes — cheap after
        # cycle elimination (§5).  Masks go out as-is; decoding to names
        # happens lazily in the result view.
        self._round += 1
        self._cache_token = self._round
        self._lval_interning.clear()
        masks: dict[str, int] = {}
        for name, node in self._nodes.items():
            if name.startswith("*") or name.startswith("$sl"):
                continue  # synthetic deref/split nodes are not objects
            masks[name] = self._lvals(self._find(node))
        return self._finalize_masks(masks)
