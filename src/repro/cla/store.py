"""Constraint stores: where the analyzer gets its assignments from.

A :class:`ConstraintStore` is the analyze-phase view of the CLA database
(§4): base (``x = &y``) assignments live in an always-loaded *static*
section; every other assignment lives in the *dynamic* section, in the block
of its **trigger object** — the object whose points-to/dependence change
makes the assignment relevant ("a very rough intuition is that whenever z
changes, the primitive assignments in the block for z tell us what we must
recompute", Figure 4):

=============  ==============  ===========================================
assignment     trigger object  why
=============  ==============  ===========================================
``x = y``      ``y``           y's values flow to x
``*p = y``     ``y``           y's values flow through p
``x = *p``     ``p``           p's targets flow to x
``*p = *q``    ``q``           q's targets' values flow through p
``x = &y``     *(static)*      creates the initial lvals
=============  ==============  ===========================================

Two implementations exist: :class:`MemoryStore` here (straight from lowered
IR, for tests and in-process pipelines) and
:class:`~repro.cla.reader.DatabaseStore` (mmap-backed demand loading from a
CLA object file).  Both expose the same load accounting so Table 3's last
three columns (in-core / loaded / in-file) can be produced for either.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Protocol

from ..engine.events import EVENTS, BlockLoadEvent, BlockReloadEvent
from ..engine.obs import REGISTRY
from ..ir.lower import UnitIR
from ..ir.objects import ObjectKind, ProgramObject
from ..ir.primitives import (
    CallSiteRecord,
    FunctionRecord,
    IndirectCallRecord,
    PrimitiveAssignment,
    PrimitiveKind,
)


def trigger_object(assignment: PrimitiveAssignment) -> str | None:
    """The dynamic-section block this assignment belongs to (None: static)."""
    kind = assignment.kind
    if kind is PrimitiveKind.ADDR:
        return None
    if kind is PrimitiveKind.LOAD:
        return assignment.src  # x = *p: triggered by the pointer p
    return assignment.src  # COPY / STORE / STORE_LOAD: by the value source


@dataclass(slots=True)
class Block:
    """One dynamic-section block: an object plus its triggered assignments."""

    obj: ProgramObject
    assignments: list[PrimitiveAssignment] = field(default_factory=list)
    function_record: FunctionRecord | None = None
    indirect_record: IndirectCallRecord | None = None


#: Process-wide load accounting (module-level handles stay live across
#: registry resets; see ``MetricsRegistry.reset``).
_ASSIGNMENTS_LOADED = REGISTRY.counter("cla.assignments_loaded")
_BLOCKS_LOADED = REGISTRY.counter("cla.blocks_loaded")
_ASSIGNMENTS_RELOADED = REGISTRY.counter("cla.assignments_reloaded")
_BLOCKS_RELOADED = REGISTRY.counter("cla.blocks_reloaded")
_BLOCK_HITS = REGISTRY.counter("cla.block_cache.hits")
_BLOCK_MISSES = REGISTRY.counter("cla.block_cache.misses")
_BLOCK_EVICTIONS = REGISTRY.counter("cla.block_cache.evictions")


@dataclass(slots=True)
class LoadStats:
    """Assignment accounting for Table 3's last three columns.

    ``loaded`` counts each block's assignments **once**, the first time the
    block is materialised (the protocol's "counted once per block").
    Re-reading a block after a discard is real I/O but not new coverage:
    it counts into ``reloads``/``blocks_reloaded`` instead.  ``in_core``
    tracks current residency (what is actually retained in memory right
    now) and ``peak_in_core`` its high-water mark, so at every moment
    ``in_core <= loaded <= in_file``.  The ``block_*`` fields are filled
    by the keep-or-discard layer (:class:`repro.cla.cache.BlockCache`).
    """

    in_file: int = 0  # total primitive assignments in the database
    loaded: int = 0  # distinct assignments materialised (once per block)
    in_core: int = 0  # assignments currently retained in memory
    peak_in_core: int = 0  # high-water mark of in_core
    reloads: int = 0  # assignments re-read after a discard (real I/O)
    blocks_loaded: int = 0  # dynamic blocks materialised for the first time
    blocks_reloaded: int = 0  # block re-parses (discard-and-reload events)
    block_hits: int = 0  # block requests served from retained memory
    block_misses: int = 0  # block requests that had to parse (load + reload)
    block_evictions: int = 0  # blocks discarded to stay within the budget

    def snapshot(self) -> tuple[int, int, int]:
        return (self.in_core, self.loaded, self.in_file)

    # -- residency ---------------------------------------------------------

    def gain_core(self, assignments: int) -> None:
        """Assignments became resident (loaded or reloaded into core)."""
        self.in_core += assignments
        if self.in_core > self.peak_in_core:
            self.peak_in_core = self.in_core

    def drop_core(self, assignments: int) -> None:
        """Assignments left core (evicted or discarded)."""
        self.in_core -= assignments

    # -- load events -------------------------------------------------------

    def count_load(
        self, assignments: int, blocks: int = 1, retain: bool = True
    ) -> None:
        """Record one first-time load, locally and in the process registry.

        ``retain=False`` records the coverage without the residency — the
        paper's read-then-immediately-discard choice.
        """
        self.loaded += assignments
        self.blocks_loaded += blocks
        if retain:
            self.gain_core(assignments)
        _ASSIGNMENTS_LOADED.add(assignments)
        _BLOCKS_LOADED.add(blocks)
        if EVENTS:
            EVENTS.emit(BlockLoadEvent(
                assignments=assignments, blocks=blocks,
                in_core=self.in_core, loaded=self.loaded,
                reloads=self.reloads,
            ))

    def count_reload(
        self, assignments: int, blocks: int = 1, retain: bool = False
    ) -> None:
        """Record a re-read of an already-counted block (discard-and-reload)."""
        self.reloads += assignments
        self.blocks_reloaded += blocks
        if retain:
            self.gain_core(assignments)
        _ASSIGNMENTS_RELOADED.add(assignments)
        _BLOCKS_RELOADED.add(blocks)
        if EVENTS:
            EVENTS.emit(BlockReloadEvent(
                assignments=assignments, blocks=blocks,
                in_core=self.in_core, loaded=self.loaded,
                reloads=self.reloads,
            ))

    # -- cache events ------------------------------------------------------

    def count_hit(self, blocks: int = 1) -> None:
        self.block_hits += blocks
        _BLOCK_HITS.add(blocks)

    def count_miss(self, blocks: int = 1) -> None:
        self.block_misses += blocks
        _BLOCK_MISSES.add(blocks)

    def count_eviction(self, assignments: int, blocks: int = 1) -> None:
        """A retained block was discarded to stay within the budget."""
        self.block_evictions += blocks
        self.drop_core(assignments)
        _BLOCK_EVICTIONS.add(blocks)


class ConstraintStore(Protocol):
    """What a solver needs from the database."""

    stats: LoadStats

    def static_assignments(self) -> list[PrimitiveAssignment]:
        """The base (``x = &y``) assignments; loading them is counted."""
        ...

    def load_block(self, name: str) -> Block | None:
        """Demand-load one object's block (None if the object has none).

        Loading is counted once per block; repeated calls return the same
        content without recounting ``loaded``/``in_core`` — a store that
        physically re-reads (the discard-and-reload strategy) reports the
        repeat as ``reloads``, never as new in-core residency.
        """
        ...

    def fetch_block(self, name: str) -> Block | None:
        """Raw, *uncounted* block access (None if the object has none).

        The seam the keep-or-discard layer
        (:class:`repro.cla.cache.BlockCache`) parses through so it can own
        all accounting itself; analyses should call :meth:`load_block`.
        """
        ...

    def fetch_statics(self) -> list[PrimitiveAssignment]:
        """Raw, *uncounted* static-section access (cache-layer seam)."""
        ...

    def object_names(self) -> Iterable[str]:
        ...

    def get_object(self, name: str) -> ProgramObject | None:
        ...

    def find_targets(self, simple_name: str) -> list[str]:
        """Canonical names of objects whose source-level name is
        ``simple_name`` (the target-section hashtable of §4)."""
        ...

    def block_names(self) -> Iterable[str]:
        """Names of all objects with a dynamic block (full-scan loading,
        used by the baseline solvers that need the whole constraint set)."""
        ...

    def call_sites(self) -> list:
        """Call-site records (caller -> callee/pointer), for call-graph
        clients."""
        ...

    def discard(self, assignments_kept: int) -> None:
        """Report the analyzer's discard decision (affects ``in_core``)."""
        ...


def simple_name_of(canonical: str) -> str:
    """The source-level name a user would type for a canonical object name.

    ``a.c::f::x`` -> ``x``;  ``S.x`` -> ``S.x`` (fields are addressed by
    qualified name, matching the paper's treatment of ``s.x`` targets);
    ``f$arg1``/``f$ret``/heap/temp names map to themselves.
    """
    if "::" in canonical:
        return canonical.rsplit("::", 1)[-1]
    return canonical


class MemoryStore:
    """A ConstraintStore over lowered in-memory IR (one or many units)."""

    def __init__(self, units: UnitIR | Iterable[UnitIR]):
        if isinstance(units, UnitIR):
            units = [units]
        self.objects: dict[str, ProgramObject] = {}
        self._statics: list[PrimitiveAssignment] = []
        self._blocks: dict[str, Block] = {}
        self._targets: dict[str, list[str]] = {}
        self.stats = LoadStats()
        self._loaded_blocks: set[str] = set()
        self._statics_loaded = False
        self._call_sites: list[CallSiteRecord] = []
        for unit in units:
            self._absorb(unit)

    def _absorb(self, unit: UnitIR) -> None:
        for name, obj in unit.objects.items():
            existing = self.objects.get(name)
            if existing is None:
                self.objects[name] = obj
                self._targets.setdefault(simple_name_of(name), []).append(name)
            else:
                # Linking a global seen in several units: keep the richest
                # metadata (a definition beats a tentative declaration).
                if existing.location.is_unknown and not obj.location.is_unknown:
                    existing.location = obj.location
                if not existing.type_str and obj.type_str:
                    existing.type_str = obj.type_str
                    existing.may_point = obj.may_point
                existing.is_funcptr = existing.is_funcptr or obj.is_funcptr
        for a in unit.assignments:
            trigger = trigger_object(a)
            if trigger is None:
                self._statics.append(a)
            else:
                block = self._ensure_block(trigger)
                block.assignments.append(a)
            self.stats.in_file += 1
        for fname, record in unit.function_records.items():
            self._ensure_block(fname).function_record = record
        for pname, record in unit.indirect_calls.items():
            block = self._ensure_block(pname)
            if (
                block.indirect_record is None
                or len(block.indirect_record.args) < len(record.args)
            ):
                block.indirect_record = record
        self._call_sites.extend(unit.call_sites)

    def absorb_unit(self, unit: UnitIR) -> None:
        """Incrementally link one more unit into the store.

        The streaming seam: the huge synth tier compiles units one at a
        time and absorbs each before generating the next, so a
        million-line corpus is never materialised in memory at once.
        """
        self._absorb(unit)

    def _ensure_block(self, name: str) -> Block:
        block = self._blocks.get(name)
        if block is None:
            obj = self.objects.get(name)
            if obj is None:
                obj = ProgramObject(name=name, kind=ObjectKind.VARIABLE)
                self.objects[name] = obj
                self._targets.setdefault(simple_name_of(name), []).append(name)
            block = Block(obj=obj)
            self._blocks[name] = block
        return block

    # -- ConstraintStore interface ----------------------------------------

    def static_assignments(self) -> list[PrimitiveAssignment]:
        if not self._statics_loaded:
            self._statics_loaded = True
            self.stats.count_load(len(self._statics), blocks=0)
        return self._statics

    def load_block(self, name: str) -> Block | None:
        block = self._blocks.get(name)
        if block is None:
            return None
        if name not in self._loaded_blocks:
            self._loaded_blocks.add(name)
            self.stats.count_load(len(block.assignments))
        return block

    def fetch_block(self, name: str) -> Block | None:
        return self._blocks.get(name)

    def fetch_statics(self) -> list[PrimitiveAssignment]:
        return self._statics

    def object_names(self) -> Iterable[str]:
        return self.objects.keys()

    def get_object(self, name: str) -> ProgramObject | None:
        return self.objects.get(name)

    def find_targets(self, simple_name: str) -> list[str]:
        return list(self._targets.get(simple_name, []))

    def block_names(self) -> Iterable[str]:
        return self._blocks.keys()

    def call_sites(self) -> list[CallSiteRecord]:
        return list(self._call_sites)

    def discard(self, assignments_kept: int) -> None:
        self.stats.in_core = assignments_kept

    # -- convenience (not part of the protocol) -----------------------------

    def all_assignments(self) -> list[PrimitiveAssignment]:
        out = list(self._statics)
        for block in self._blocks.values():
            out.extend(block.assignments)
        return out

    def blocks(self) -> dict[str, Block]:
        return self._blocks
