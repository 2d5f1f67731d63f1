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

Two stores own their rows: :class:`MemoryStore` here (the linked database
in memory, and the one home of the link rules) and
:class:`~repro.cla.reader.DatabaseStore` (one CLA file, mmap-backed and
decoded on demand).  Both read raw through ``fetch_statics``/
``fetch_block`` and share :class:`CountedStore`'s counted reads, so Table
3's last three columns (in-core / loaded / in-file) are counted alike for
either.  A solver reads only each row's ``(kind, dst, src)``: the counted
``static_triples``/``load_triples`` hand out just that, and a
``DatabaseStore`` decodes nothing more of a row for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import attrgetter
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


#: Read once here: an Enum member read through its class costs several
#: times a module global's, once per row of every link.
_ADDR = PrimitiveKind.ADDR
_FUNCTION = ObjectKind.FUNCTION
_TEMP = ObjectKind.TEMP

#: A row's ``(kind, dst, src)``: all a solver reads of it.
Triple = tuple[PrimitiveKind, str, str]
triple_of = attrgetter("kind", "dst", "src")


def trigger_object(assignment: PrimitiveAssignment) -> str | None:
    """The dynamic-section block this assignment belongs to (None: static).

    ``x = *p`` is triggered by the pointer ``p``; ``x = y``, ``*p = y``
    and ``*p = *q`` by their value source.  Either way that is ``src``.
    """
    if assignment.kind is _ADDR:
        return None
    return assignment.src


@dataclass(slots=True)
class Block:
    """One dynamic-section block: the assignments its object triggers,
    and the object's function and indirect-call records.  A store names
    its blocks by their object's name; the object itself is
    :meth:`ConstraintStore.get_object`'s."""

    assignments: list[PrimitiveAssignment] = field(default_factory=list)
    function_record: FunctionRecord | None = None
    indirect_record: IndirectCallRecord | None = None


@dataclass(frozen=True, slots=True)
class ObjectFlags:
    """Every question a solve asks of the object metadata, answered in
    one pass: which objects are functions and which are function
    pointers (§4's analysis-time linking), which cannot carry a pointer
    (§6: their value flow is irrelevant to aliasing), and which are
    compiler temporaries (Table 3's counts leave them out).  A name the
    store does not know is in none of the sets."""

    functions: frozenset[str]
    funcptrs: frozenset[str]
    non_pointers: frozenset[str]
    temps: frozenset[str] = frozenset()


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

    def static_triples(self) -> Iterable[Triple]:
        """``(kind, dst, src)`` of each static row, in row order: the
        solvers' read of the static section, counted as
        :meth:`static_assignments` counts it (once per solve, whichever
        of the two reads it first)."""
        ...

    def load_triples(self, name: str) -> Iterable[Triple]:
        """``(kind, dst, src)`` of each row of ``name``'s block, in row
        order (empty without a block): the solvers' read of a block,
        counted as :meth:`load_block` counts it, against the same record
        of which blocks this solve has read."""
        ...

    def fetch_block(self, name: str) -> Block | None:
        """Raw, *uncounted* block access (None if the object has none).

        The seam the keep-or-discard layer
        (:class:`repro.cla.cache.BlockCache`), the link and the oracle
        read through, so they never move the counts; analyses should
        call :meth:`load_block`.
        """
        ...

    def fetch_statics(self) -> list[PrimitiveAssignment]:
        """Raw, *uncounted* static-section access."""
        ...

    def object_names(self) -> Iterable[str]:
        ...

    def object_flags(self) -> ObjectFlags:
        """The function, function-pointer and non-pointer objects, from
        one pass over the metadata; no object is decoded for it."""
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

    def restart_counts(self) -> None:
        """Count afresh from here on: every solve calls this first, so
        Table 3's columns are the reads of that solve alone.  A no-op on
        a store nothing has read yet."""
        ...


class CountedStore:
    """The counted reads of a store that owns its rows, written once over
    its raw ``fetch_statics``/``fetch_block``.

    The static section is always loaded (§4): it is counted the first
    time it is read and the counted read keeps it.  A block counts into
    ``loaded``/``in_core`` the first time it is loaded; loading it again
    counts as a reload only where :attr:`_reparses` says the raw read
    parsed it again.  The solvers' reads, :meth:`static_triples` and
    :meth:`load_triples`, count alike, against the same record; here
    they project the raw rows, and a store that can decode the tuples
    directly overrides them.  :meth:`discard` takes the analyzer's report
    of what it retained, and :meth:`restart_counts` returns the counts to
    those of the fresh store.
    """

    #: Does ``fetch_block`` parse the block again on every call?
    _reparses = False

    def __init__(self, in_file: int = 0):
        self.stats = LoadStats(in_file=in_file)
        self._loaded_statics: list[PrimitiveAssignment] | None = None
        self._statics_counted = False
        self._loaded_blocks: set[str] = set()

    def static_assignments(self) -> list[PrimitiveAssignment]:
        if self._loaded_statics is None:
            self._loaded_statics = self.fetch_statics()
            self._count_statics(len(self._loaded_statics))
        return self._loaded_statics

    def load_block(self, name: str) -> Block | None:
        block = self.fetch_block(name)
        if block is not None:
            self._count_block(name, len(block.assignments))
        return block

    def static_triples(self) -> Iterable[Triple]:
        rows = self.fetch_statics()
        self._count_statics(len(rows))
        return map(triple_of, rows)

    def load_triples(self, name: str) -> Iterable[Triple]:
        block = self.fetch_block(name)
        if block is None:
            return ()
        self._count_block(name, len(block.assignments))
        return map(triple_of, block.assignments)

    def _count_statics(self, assignments: int) -> None:
        if not self._statics_counted:
            self._statics_counted = True
            self.stats.count_load(assignments, blocks=0)

    def _count_block(self, name: str, assignments: int) -> None:
        if name not in self._loaded_blocks:
            self._loaded_blocks.add(name)
            self.stats.count_load(assignments)
        elif self._reparses:
            # Real I/O, but the block's residency and coverage were
            # already counted once.
            self.stats.count_reload(assignments)

    def discard(self, assignments_kept: int) -> None:
        self.stats.in_core = assignments_kept

    def restart_counts(self) -> None:
        self.stats = LoadStats(in_file=self.stats.in_file)
        self._loaded_statics = None
        self._statics_counted = False
        self._loaded_blocks = set()


def simple_name_of(canonical: str) -> str:
    """The source-level name a user would type for a canonical object name.

    ``a.c::f::x`` -> ``x``;  ``S.x`` -> ``S.x`` (fields are addressed by
    qualified name, matching the paper's treatment of ``s.x`` targets);
    ``f$arg1``/``f$ret``/heap/temp names map to themselves.
    """
    if "::" in canonical:
        return canonical.rsplit("::", 1)[-1]
    return canonical


class LinkError(Exception):
    """Inputs that cannot be linked into one database: mixed struct
    models, or two different definitions of one function."""


def _same_definition(a: FunctionRecord, b: FunctionRecord) -> bool:
    """Do two records describe one definition (seen twice)?  Locations
    compare as ``<file:line>``: object files do not keep columns."""
    return (
        len(a.args) == len(b.args)
        and a.ret == b.ret
        and a.variadic == b.variadic
        and a.location.brief() == b.location.brief()
    )


class MemoryStore(CountedStore):
    """The in-memory linked database: a ConstraintStore over any number
    of lowered units and object files.

    Every link route merges through this class, so it alone holds the
    link rules:

    * a global seen in several inputs keeps the richest metadata, in a
      copy: an input is never written into, so one unit can be linked
      again and again;
    * rows are grouped into the block of their trigger object;
    * a pointer keeps its widest indirect-call record;
    * identical function records keep the first, and two different
      definitions of one function raise :class:`LinkError`;
    * ``source_lines`` is the sum over the inputs;
    * the first input sets :attr:`struct_model`, and an input of another
      struct model raises :class:`LinkError`.

    :meth:`absorb_unit` groups a lowered unit's rows one by one, or
    merges a :class:`UnitStore` (a unit grouped once, as a workspace
    holds it) block by block; :meth:`absorb_object` merges an object file
    block by block, through the same merge.
    """

    def __init__(self, units: UnitIR | Iterable[UnitIR | UnitStore] = ()):
        if isinstance(units, UnitIR):
            units = [units]
        super().__init__()
        #: The struct model of every input (field-based while empty).
        self.struct_model = "field_based"
        self._has_inputs = False
        self.source_lines = 0
        self.objects: dict[str, ProgramObject] = {}
        self._statics: list[PrimitiveAssignment] = []
        self._blocks: dict[str, Block] = {}
        #: simple name -> canonical names, built on first lookup: linking
        #: and writing never need it.
        self._targets: dict[str, list[str]] | None = None
        self._call_sites: list[CallSiteRecord] = []
        for unit in units:
            self.absorb_unit(unit)

    # -- linking -------------------------------------------------------------

    def absorb_unit(self, unit: UnitIR | UnitStore) -> None:
        """Link one lowered unit into the store.

        A bare :class:`UnitIR` is grouped row by row; a
        :class:`UnitStore` already holds that grouping, so its blocks are
        merged instead, to the same store, dict orders included.  Records
        are added in the unit's own order either way, so a conflict names
        the same function.

        Also the streaming seam: the huge synth tier compiles units one
        at a time and absorbs each before generating the next, so a
        million-line corpus is never materialised in memory at once.
        """
        grouped = unit if isinstance(unit, UnitStore) else None
        if grouped is not None:
            unit = grouped.unit
        self._link_struct_model(unit.struct_model, unit.filename)
        self._targets = None
        self.source_lines += unit.source_lines
        if grouped is not None:
            # The grouped objects are the unit's, then a placeholder per
            # block the unit names no object for, as grouping left them.
            self._merge_objects(grouped.objects.items())
            self._merge_rows(grouped._statics, grouped._blocks.items())
        else:
            self._merge_objects(unit.objects.items())
            statics = self._statics
            blocks = self._blocks
            for a in unit.assignments:
                # trigger_object, inlined: this loop runs once per row.
                if a.kind is _ADDR:
                    statics.append(a)
                else:
                    block = blocks.get(a.src)
                    if block is None:
                        block = self._new_block(a.src, [])
                    block.assignments.append(a)
        self.stats.in_file += len(unit.assignments)
        for name, record in unit.function_records.items():
            self._add_function_record(self._ensure_block(name), record)
        for name, record in unit.indirect_calls.items():
            self._add_indirect_record(self._ensure_block(name), record)
        self._call_sites.extend(unit.call_sites)

    def absorb_object(self, database) -> None:
        """Link one open object file (a
        :class:`~repro.cla.reader.DatabaseStore`) into the store, one
        block at a time, through its raw reads."""
        self._link_struct_model(database.struct_model, database.path)
        self._targets = None
        self.source_lines += database.source_lines
        self._merge_objects((obj.name, obj) for obj in database.objects())
        self._call_sites.extend(database.call_sites())
        blocks = [(name, database.fetch_block(name))
                  for name in database.block_names()]
        self._merge_rows(database.fetch_statics(), blocks)
        mine = self._blocks
        for name, block in blocks:
            if block.function_record is not None:
                self._add_function_record(mine[name], block.function_record)
            if block.indirect_record is not None:
                self._add_indirect_record(mine[name], block.indirect_record)
        self.stats.in_file += database.stats.in_file

    def _merge_rows(self, statics: list[PrimitiveAssignment],
                    blocks: Iterable[tuple[str, Block]]) -> None:
        """Append an input's statics and each of its blocks' rows: one
        list copy for a block new to the store, one extend for a block
        it has.  The input's lists are only read, and its records are
        the caller's to add."""
        self._statics.extend(statics)
        mine = self._blocks
        for name, block in blocks:
            own = mine.get(name)
            if own is None:
                self._new_block(name, block.assignments.copy())
            else:
                own.assignments.extend(block.assignments)

    def _link_struct_model(self, model: str, source: str) -> None:
        if self._has_inputs and model != self.struct_model:
            raise LinkError(
                f"{source}: struct model {model} differs from earlier "
                f"inputs ({self.struct_model})"
            )
        self.struct_model = model
        self._has_inputs = True

    def _merge_objects(
        self, objects: Iterable[tuple[str, ProgramObject]]
    ) -> None:
        mine = self.objects
        for name, obj in objects:
            existing = mine.get(name)
            if existing is None:
                mine[name] = obj
                continue
            # A global seen in several inputs: keep the richest metadata
            # (a definition beats a tentative declaration).  The objects
            # belong to the inputs, which later links reuse, so a merge
            # that changes one copies it instead of writing into it.
            changes = {}
            if existing.location.is_unknown and not obj.location.is_unknown:
                changes["location"] = obj.location
            if not existing.type_str and obj.type_str:
                changes["type_str"] = obj.type_str
                changes["may_point"] = obj.may_point
            if obj.is_funcptr and not existing.is_funcptr:
                changes["is_funcptr"] = True
            if changes:
                mine[name] = replace(existing, **changes)

    def _ensure_block(self, name: str) -> Block:
        block = self._blocks.get(name)
        if block is None:
            block = self._new_block(name, [])
        return block

    def _new_block(self, name: str,
                   rows: list[PrimitiveAssignment]) -> Block:
        if name not in self.objects:
            self.objects[name] = ProgramObject(
                name=name, kind=ObjectKind.VARIABLE)
        block = self._blocks[name] = Block(rows, None, None)
        return block

    @staticmethod
    def _add_function_record(block: Block, record: FunctionRecord) -> None:
        """The one function-record rule: the same definition reaching the
        link twice (a shared header, an object linked twice) keeps the
        first record; two different definitions of one function are the
        moral equivalent of ``multiple definition of `f'``, since letting
        either win would bind every call site to it silently."""
        current = block.function_record
        if current is None:
            block.function_record = record
        elif not _same_definition(current, record):
            raise LinkError(
                f"duplicate definition of function '{record.function}': "
                f"{current.location.brief()} and {record.location.brief()}"
            )

    @staticmethod
    def _add_indirect_record(block: Block, record: IndirectCallRecord) -> None:
        current = block.indirect_record
        if current is None or len(current.args) < len(record.args):
            block.indirect_record = record

    def to_unit(self, filename: str = "<linked>") -> UnitIR:
        """The whole database as one unit (statics first, then each
        block's rows): the input and output form of the §4
        database-to-database transforms.  Absorbing it into a new store
        rebuilds this one."""
        unit = UnitIR(filename=filename, objects=dict(self.objects),
                      assignments=self.all_assignments(),
                      call_sites=list(self._call_sites),
                      source_lines=self.source_lines,
                      struct_model=self.struct_model)
        for name, block in self._blocks.items():
            if block.function_record is not None:
                unit.function_records[name] = block.function_record
            if block.indirect_record is not None:
                unit.indirect_calls[name] = block.indirect_record
        return unit

    # -- ConstraintStore interface ----------------------------------------

    def fetch_block(self, name: str) -> Block | None:
        return self._blocks.get(name)

    def fetch_statics(self) -> list[PrimitiveAssignment]:
        return self._statics

    def object_names(self) -> Iterable[str]:
        return self.objects.keys()

    def object_flags(self) -> ObjectFlags:
        functions, funcptrs, non_pointers, temps = [], [], [], []
        for name, obj in self.objects.items():
            kind = obj.kind
            if kind is _FUNCTION:
                functions.append(name)
            elif kind is _TEMP:
                temps.append(name)
            if obj.is_funcptr:
                funcptrs.append(name)
            if not obj.may_point:
                non_pointers.append(name)
        return ObjectFlags(frozenset(functions), frozenset(funcptrs),
                           frozenset(non_pointers), frozenset(temps))

    def get_object(self, name: str) -> ProgramObject | None:
        return self.objects.get(name)

    def find_targets(self, simple_name: str) -> list[str]:
        if self._targets is None:
            targets: dict[str, list[str]] = {}
            for name in self.objects:
                targets.setdefault(simple_name_of(name), []).append(name)
            for names in targets.values():
                names.sort()
            self._targets = targets
        return list(self._targets.get(simple_name, ()))

    def block_names(self) -> Iterable[str]:
        return self._blocks.keys()

    def call_sites(self) -> list[CallSiteRecord]:
        return list(self._call_sites)

    def close(self) -> None:
        """Nothing to release: the store holds no file."""

    # -- convenience (not part of the protocol) -----------------------------

    def all_assignments(self) -> list[PrimitiveAssignment]:
        out = list(self._statics)
        for block in self._blocks.values():
            out.extend(block.assignments)
        return out

    def blocks(self) -> dict[str, Block]:
        return self._blocks


class UnitStore(MemoryStore):
    """One lowered unit grouped into blocks: what its object file holds,
    held in memory beside the unit.

    A workspace builds one when it compiles a unit or reads one back,
    writes the unit's object file from it, and links its held units from
    these: each link merges their blocks (:meth:`MemoryStore.absorb_unit`)
    instead of grouping every row again.  A link copies what it takes,
    so the store stays as it was built, however often it is linked.
    """

    def __init__(self, unit: UnitIR):
        super().__init__(unit)
        #: The unit grouped here.
        self.unit = unit
