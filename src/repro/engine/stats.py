"""The uniform solver-statistics contract (Tables 2-3's measurement spine).

Every solver — pre-transitive, transitive, Steensgaard, one-level —
fills the *same* :class:`SolverStats` record through the shared
hook in :mod:`repro.solvers.base`, so benches, the CLI's ``--stats`` flag
and the paper-table harness read one schema regardless of algorithm.
Counters an algorithm has no equivalent for simply stay zero (e.g. only
the pre-transitive solver has an lval cache, so it alone reports
``cache_hits``/``cache_misses``).

The last three fields mirror the CLA load accounting
(:class:`repro.cla.store.LoadStats`) at the moment the solve finished —
Table 3's in-core / loaded / in-file columns are read from here.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .obs import REGISTRY, MetricsRegistry


@dataclass
class SolverStats:
    """Instrumentation every solver fills in (uniform across solvers)."""

    solver: str = ""
    #: fixpoint iterations (outer rounds for iterative solvers, worklist
    #: pops for worklist solvers)
    rounds: int = 0
    edges_added: int = 0
    constraints: int = 0  # complex assignments processed (kept in core)
    cycles_collapsed: int = 0  # nodes removed by unification
    lval_queries: int = 0
    nodes_visited: int = 0  # node expansions during reachability traversals
    funcptr_links: int = 0
    #: lval cache behaviour (§5's caching optimization; pre-transitive only)
    lvals_cached: int = 0  # cache entries sealed
    cache_hits: int = 0
    cache_misses: int = 0
    #: difference propagation (pre-transitive only): (constraint, lval)
    #: pairs turned into edge-add attempts vs. skipped as already processed
    delta_lvals_processed: int = 0
    lvals_skipped_by_diff: int = 0
    #: integer-core accounting: dense ids interned into the shared
    #: ObjectUniverse (node space / target space) and the total machine
    #: words backing the final points-to bitmasks
    interned_objects: int = 0
    interned_targets: int = 0
    bitset_words: int = 0
    #: CLA load accounting snapshot (Table 3's last three columns)
    blocks_loaded: int = 0
    assignments_in_core: int = 0
    assignments_loaded: int = 0
    assignments_in_file: int = 0
    #: keep-or-discard accounting (§4 discard-and-reload; filled when the
    #: store re-reads blocks or a BlockCache sits in front of it)
    assignments_reloaded: int = 0
    peak_in_core: int = 0
    block_hits: int = 0
    block_misses: int = 0
    block_evictions: int = 0

    def absorb_load_stats(self, loads) -> "SolverStats":
        """Snapshot a store's :class:`~repro.cla.store.LoadStats`."""
        self.blocks_loaded = loads.blocks_loaded
        self.assignments_in_core = loads.in_core
        self.assignments_loaded = loads.loaded
        self.assignments_in_file = loads.in_file
        self.assignments_reloaded = loads.reloads
        self.peak_in_core = loads.peak_in_core
        self.block_hits = loads.block_hits
        self.block_misses = loads.block_misses
        self.block_evictions = loads.block_evictions
        return self

    def as_dict(self) -> dict[str, int | str]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def counter_fields(self) -> dict[str, int]:
        """The integer counters only (no solver name)."""
        return {k: v for k, v in self.as_dict().items() if k != "solver"}

    def table3_columns(self) -> tuple[int, int, int]:
        """Table 3's (in core, loaded, in file) assignment accounting."""
        return (
            self.assignments_in_core,
            self.assignments_loaded,
            self.assignments_in_file,
        )

    #: field -> registry-name overrides: the integer-core counters publish
    #: under dotted namespaces (solver.intern.*, solver.bitset.*)
    _PUBLISH_ALIASES = {
        "interned_objects": "intern.objects",
        "interned_targets": "intern.targets",
        "bitset_words": "bitset.words",
    }

    def publish(self, registry: MetricsRegistry | None = None) -> None:
        """Accumulate these counters into a registry (default: process)."""
        registry = REGISTRY if registry is None else registry
        for name, value in self.counter_fields().items():
            if value:
                name = self._PUBLISH_ALIASES.get(name, name)
                registry.counter(f"solver.{name}").add(value)

    def render(self) -> str:
        """One-line human summary (the CLI's ``--stats`` output)."""
        return (
            f"stats[{self.solver}]: rounds={self.rounds} "
            f"edges={self.edges_added} constraints={self.constraints} "
            f"cycles_collapsed={self.cycles_collapsed} "
            f"lval_queries={self.lval_queries} "
            f"nodes_visited={self.nodes_visited} "
            f"funcptr_links={self.funcptr_links} "
            f"lvals_cached={self.lvals_cached} "
            f"cache_hits={self.cache_hits} "
            f"cache_misses={self.cache_misses} "
            f"delta_lvals_processed={self.delta_lvals_processed} "
            f"lvals_skipped_by_diff={self.lvals_skipped_by_diff} "
            f"interned={self.interned_objects}/{self.interned_targets} "
            f"bitset_words={self.bitset_words} "
            f"blocks_loaded={self.blocks_loaded} "
            f"in_core/loaded/in_file="
            f"{self.assignments_in_core}/{self.assignments_loaded}/"
            f"{self.assignments_in_file} "
            f"peak_in_core={self.peak_in_core} "
            f"reloads={self.assignments_reloaded} "
            f"block_hits/misses/evictions="
            f"{self.block_hits}/{self.block_misses}/{self.block_evictions}"
        )
