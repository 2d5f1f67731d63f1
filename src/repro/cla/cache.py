"""The keep-or-discard block cache: bounded-memory analysis (paper §4).

"After reading a component we have the choice of keeping it in memory or
discarding it and re-reading it if we ever need it again."  This module is
that choice made explicit: :class:`BlockCache` sits between any solver and
any :class:`~repro.cla.store.ConstraintStore` and retains parsed dynamic
blocks up to a configurable assignment budget, evicting least-recently
used blocks when the budget is exceeded.  A re-request of an evicted block
re-reads it from the underlying store and counts as a *reload* — the
measurable cost of running under a memory bound.

Accounting is exact by construction: the cache bypasses the wrapped
store's counted entry points (it parses through the raw
``fetch_block``/``fetch_statics`` seam) and owns all counting itself, so
``in_core`` is always precisely the assignments currently retained —
the memoized static section plus the cached blocks — and
``peak_in_core`` its high-water mark.  The invariants

    ``in_core <= loaded <= in_file``    and
    ``peak_in_core <= max(budget, statics)``

hold at every moment (the static section is always loaded, §4, so it is a
mandatory resident the budget cannot evict; budgets smaller than the
static section simply retain no blocks at all).

The cache implements the full :class:`~repro.cla.store.ConstraintStore`
protocol, so solvers, the dependence analysis and the call-graph builder
use it unchanged; sharing one cache across an analyze-then-depend session
turns the depend phase's block re-requests into hits instead of reloads.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable

from ..engine.events import EVENTS, BlockEvictEvent
from ..ir.objects import ProgramObject
from ..ir.primitives import PrimitiveAssignment
from .store import Block, ConstraintStore, LoadStats, ObjectFlags, Triple, triple_of


class BlockCache:
    """LRU keep-or-discard layer over a :class:`ConstraintStore`.

    ``max_core_assignments`` bounds the total assignments retained in
    core (``None`` = unbounded, i.e. keep everything ever loaded).  The
    static section is loaded up front (§4) and always stays resident;
    dynamic blocks fill the remaining allowance and are evicted least-
    recently-used first.  A block larger than the whole allowance is
    served but discarded on arrival — read, used, never retained.
    """

    def __init__(
        self,
        store: ConstraintStore,
        max_core_assignments: int | None = None,
    ):
        if max_core_assignments is not None and max_core_assignments < 0:
            raise ValueError(
                f"max_core_assignments must be >= 0 or None, "
                f"got {max_core_assignments}"
            )
        self.store = store
        self.max_core_assignments = max_core_assignments
        self.stats = LoadStats(in_file=store.stats.in_file)
        #: retained blocks, least-recently-used first
        self._blocks: "OrderedDict[str, Block]" = OrderedDict()
        self._retained_assignments = 0
        self._loaded_names: set[str] = set()  # ever materialised
        self._missing: set[str] = set()  # names known to have no block
        # The static section is always loaded (§4): fetch it now so the
        # block allowance is fixed from the start and ``peak_in_core``
        # can never transiently overshoot the budget.
        self._statics: list[PrimitiveAssignment] = list(
            store.fetch_statics()
        )
        self.stats.count_load(len(self._statics), blocks=0)

    # -- the budget ---------------------------------------------------------

    @property
    def block_allowance(self) -> int | None:
        """Assignments available to dynamic blocks (None = unbounded)."""
        if self.max_core_assignments is None:
            return None
        return max(0, self.max_core_assignments - len(self._statics))

    def retained_blocks(self) -> int:
        """Number of dynamic blocks currently kept in core."""
        return len(self._blocks)

    def _evict_until(self, needed: int) -> None:
        allowance = self.block_allowance
        if allowance is None:
            return
        while (
            self._retained_assignments + needed > allowance and self._blocks
        ):
            name, victim = self._blocks.popitem(last=False)
            n = len(victim.assignments)
            self._retained_assignments -= n
            self.stats.count_eviction(n)
            if EVENTS:
                EVENTS.emit(BlockEvictEvent(
                    block=name, assignments=n,
                    in_core=self.stats.in_core,
                    evictions=self.stats.block_evictions,
                ))

    # -- ConstraintStore interface ------------------------------------------

    def static_assignments(self) -> list[PrimitiveAssignment]:
        return self._statics

    def fetch_statics(self) -> list[PrimitiveAssignment]:
        return self._statics

    def load_block(self, name: str) -> Block | None:
        block = self._blocks.get(name)
        if block is not None:
            self._blocks.move_to_end(name)
            self.stats.count_hit()
            return block
        if name in self._missing:
            return None
        block = self.store.fetch_block(name)
        if block is None:
            self._missing.add(name)
            return None
        self.stats.count_miss()
        n = len(block.assignments)
        allowance = self.block_allowance
        fits = allowance is None or n <= allowance
        if fits:
            # Make room *before* counting the arrival so in_core (and
            # hence peak_in_core) never transiently overshoots the budget.
            self._evict_until(n)
        if name in self._loaded_names:
            self.stats.count_reload(n, retain=fits)
        else:
            self._loaded_names.add(name)
            self.stats.count_load(n, retain=fits)
        if fits:
            self._blocks[name] = block
            self._retained_assignments += n
        else:
            # Too big to ever keep: discarded on arrival (the paper's
            # read-then-discard choice, at block granularity).
            self.stats.count_eviction(0)
            if EVENTS:
                EVENTS.emit(BlockEvictEvent(
                    block=name, assignments=n,
                    in_core=self.stats.in_core,
                    evictions=self.stats.block_evictions,
                ))
        return block

    def static_triples(self) -> Iterable[Triple]:
        return map(triple_of, self._statics)

    def load_triples(self, name: str) -> Iterable[Triple]:
        """A block's ``(kind, dst, src)``, read through :meth:`load_block`:
        the cache keeps full blocks, so a later ``load_block`` of the same
        block (a dependence chain) is a hit."""
        block = self.load_block(name)
        return () if block is None else map(triple_of, block.assignments)

    def fetch_block(self, name: str) -> Block | None:
        return self.store.fetch_block(name)

    def object_names(self) -> Iterable[str]:
        return self.store.object_names()

    def object_flags(self) -> ObjectFlags:
        return self.store.object_flags()

    def get_object(self, name: str) -> ProgramObject | None:
        return self.store.get_object(name)

    def find_targets(self, simple_name: str) -> list[str]:
        return self.store.find_targets(simple_name)

    def block_names(self) -> Iterable[str]:
        return self.store.block_names()

    def call_sites(self) -> list:
        return self.store.call_sites()

    def discard(self, assignments_kept: int) -> None:
        """The analyzer's keep-report is advisory here: residency is owned
        by the cache and ``in_core`` is already exact, so nothing moves."""

    def restart_counts(self) -> None:
        """Count afresh for the next solve.  What is resident stays: the
        static section and every retained block count as loaded and in
        core from the start (the solve finds them in memory, so a
        request for one is a hit), and any other block counts as a load
        the first time the solve reads it.  So ``in_core <= loaded``
        still holds, and on a fresh cache nothing changes."""
        resident = self.stats.in_core
        self.stats = LoadStats(
            in_file=self.stats.in_file, loaded=resident, in_core=resident,
            peak_in_core=resident, blocks_loaded=len(self._blocks),
        )
        self._loaded_names = set(self._blocks)

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        self.store.close()

    def __enter__(self) -> "BlockCache":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

