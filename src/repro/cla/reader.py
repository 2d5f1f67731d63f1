"""The CLA database store: one object file or linked database, read
through mmap with demand loading.

The analyze phase never reads the whole database: the static section is
loaded up front; dynamic blocks are located through the block index and
parsed only when the analysis asks for them ("only those parts of the
object file that are required are loaded", §4).  Parsed blocks are *not*
retained here — the caller keeps what it wants and may re-request a block,
which re-reads it from the map ("after reading a component we have the
choice of keeping it in memory or discarding it and re-reading it if we
ever need it again").

The on-disk hash indexes are sorted for binary search, but a Python
reader pays more per probe than for one pass over a whole index.  So,
leaving the format as it is, each open scans an index section once into a
dict: block name -> block header offset (at open, where every block span
is checked and the assignments counted); object name -> ``global`` entry
offset and simple name -> canonical names (each on first use).  A solve
asks the object metadata only which objects are functions, function
pointers, non-pointers and temporaries: :meth:`DatabaseStore.object_flags`
answers that in one pass over the kind and flag bytes of the ``global``
entries, without the name table and without decoding a single object.
An object is decoded only when asked for by name, from a copy of the
``global`` entries that the store keeps, so a result's objects decode
also after the store is closed.  The static section and each block are
parsed on demand, each with one ``Struct.iter_unpack`` pass over its
rows, so Table 3's *loaded* column is what in-place lookups gave.

There are two row decoders.  The solvers' read (``static_triples``/
``load_triples``) builds one ``(kind, dst, src)`` tuple per row and no
row object; ``fetch_statics``/``fetch_block`` decode full rows, for the
link, the oracle, dependence chains, ``dump`` and the transforms.  Both
check every string ref against the string table and every enum byte
against its enum, in the same order, so a corrupt row raises the same
error through either.  Neither builds a :class:`Location`: a decoded row
or object keeps its ``(file_ref, line)`` and builds its location the
first time something reads it.  No solver does.  The location tables hold
the decoded string table and never the map, so locations resolve after
the store is closed.
"""

from __future__ import annotations

import mmap
from functools import cached_property
from itertools import compress
from typing import Iterator

from ..cfront.source import Location
from ..ir.objects import ObjectKind, ProgramObject
from ..ir.primitives import (
    CallSiteRecord,
    FunctionRecord,
    IndirectCallRecord,
    PrimitiveAssignment,
    PrimitiveKind,
)
from ..ir.strength import Strength
from . import objfile as F
from .store import Block, CountedStore, ObjectFlags, Triple


def _members(enum_cls) -> dict:
    """Enum members by their on-disk value: one dict hit per row instead
    of an enum call."""
    return {member.value: member for member in enum_cls}


_KINDS = _members(PrimitiveKind)
_STRENGTHS = _members(Strength)
_OBJECT_KINDS = _members(ObjectKind)


def _byte_set(test) -> bytes:
    """A ``bytes.translate`` table: each byte value maps to 1 where
    ``test`` holds for it, to 0 elsewhere."""
    return bytes(1 if test(value) else 0 for value in range(256))


_IS_FUNCTION = _byte_set(lambda kind: kind == ObjectKind.FUNCTION.value)
_IS_TEMP = _byte_set(lambda kind: kind == ObjectKind.TEMP.value)
_IS_FUNCPTR = _byte_set(lambda flags: flags & F.OBJ_FLAG_FUNCPTR)
_IS_NON_POINTER = _byte_set(lambda flags: not flags & F.OBJ_FLAG_MAY_POINT)


def _tag_name(tag: bytes) -> str:
    return tag.rstrip(b"\x00").decode("ascii", "replace")


class _Locations(dict):
    """Interned :class:`Location` per ``(file_ref, line)``: rows share the
    location (nothing assigns to one) instead of building one each, so a
    block read again from a long-lived store (dependence chains in the
    serve daemon) builds no new locations."""

    def __init__(self, strings: F.StringReader):
        super().__init__()
        self._strings = strings

    def __missing__(self, key: tuple[int, int]) -> Location:
        file_ref, line = key
        filename = self._strings[file_ref]
        location = Location(filename, line) if filename else Location.unknown()
        self[key] = location
        return location


def _get_location(self) -> Location:
    site = self._site
    if site.__class__ is tuple:
        locations, file_ref, line = site
        site = self._site = locations[file_ref, line]
    return site


def _set_location(self, location: Location) -> None:
    self._site = location


#: ``location`` of a decoded row or object: ``_site`` holds the
#: ``(locations, file_ref, line)`` it was decoded with until the first
#: read builds (or finds) the interned :class:`Location`.
_DEFERRED_LOCATION = property(_get_location, _set_location)


class _Row(PrimitiveAssignment):
    """An assignment row as decoded from a file: a
    :class:`PrimitiveAssignment` whose location is built on first read."""

    __slots__ = ("_site",)
    location = _DEFERRED_LOCATION


class _Object(ProgramObject):
    """An object as decoded from a file's ``global`` section: a
    :class:`ProgramObject` whose location is built on first read."""

    __slots__ = ("_site",)
    location = _DEFERRED_LOCATION


class DatabaseStore(CountedStore):
    """One CLA file through mmap: the counted store the solvers read, and
    the object file the link and the workspace read back.

    The open maps the file, validates its header and section table, and
    counts its assignments (``stats.in_file``); everything else is read
    on demand.  ``fetch_statics``/``fetch_block`` are the raw reads: each
    call parses fresh rows from the map and the store keeps none of
    them.  The counted reads are :class:`~repro.cla.store.CountedStore`'s:
    a block counts into ``loaded``/``in_core`` once and every re-read into
    ``reloads`` (real I/O under the discard-and-reload strategy, but not
    new coverage or residency), so ``in_core <= loaded <= in_file`` holds
    at all times.  Wrap the store in :class:`repro.cla.cache.BlockCache`
    for a keep-or-discard retention policy with exact residency
    accounting.
    """

    _reparses = True

    def __init__(self, path: str):
        self.path = path
        self._closed = False
        self._file = open(path, "rb")
        try:
            self._map = mmap.mmap(self._file.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError:
            self._closed = True
            self._file.close()
            raise F.ClaFormatError(
                f"{path}: empty or unmappable file"
            ) from None
        try:
            # Validate size / magic / version / section bounds and every
            # block span up front, so a truncated or corrupt database
            # fails with one clear error instead of a struct.error from
            # whichever unpack happens to fall off the end of the map.
            self._read_header()
            super().__init__(in_file=self._assignment_count())
        except BaseException:
            self.close()
            raise
        self._objects: dict[str, ProgramObject | None] = {}

    @classmethod
    def open(cls, path: str) -> "DatabaseStore":
        """Open, validate and map the CLA file at ``path``."""
        return cls(path)

    def _read_header(self) -> None:
        path, file_size = self.path, len(self._map)
        if file_size < F.HEADER.size:
            raise F.ClaFormatError(
                f"{path}: truncated header ({file_size} bytes, "
                f"CLA header is {F.HEADER.size})"
            )
        header = F.HEADER.unpack_from(self._map, 0)
        magic, version, self.flags, nsections, _r32, self.source_lines, _r64 = header
        if magic != F.MAGIC:
            raise F.ClaFormatError(f"{path}: bad magic {magic!r}")
        if version != F.VERSION:
            raise F.ClaFormatError(f"{path}: unsupported version {version}")
        table_end = F.HEADER.size + nsections * F.SECTION_ENTRY.size
        if table_end > file_size:
            raise F.ClaFormatError(
                f"{path}: truncated section table "
                f"({nsections} sections claimed, {file_size} bytes)"
            )
        self.sections: dict[bytes, tuple[int, int]] = {}
        for pos in range(F.HEADER.size, table_end, F.SECTION_ENTRY.size):
            tag, offset, size = F.SECTION_ENTRY.unpack_from(self._map, pos)
            if offset + size > file_size:
                raise F.ClaFormatError(
                    f"{path}: section {_tag_name(tag)!r} out of bounds "
                    f"(offset={offset} size={size}, file is "
                    f"{file_size} bytes)"
                )
            self.sections[tag] = (offset, size)
        str_off, str_size = self.sections.get(F.SEC_STRTAB, (0, 0))
        self.strings = F.StringReader(self._map, str_off, str_size, path)
        self._locations = _Locations(self.strings)
        self._dynamic_end = sum(self.sections.get(F.SEC_DYNAMIC, (0, 0)))

    @property
    def struct_model(self) -> str:
        """The struct model the file was compiled under."""
        if self.flags & F.FLAG_OFFSET_BASED:
            return "offset_based"
        if self.flags & F.FLAG_FIELD_BASED:
            return "field_based"
        return "field_independent"

    @property
    def linked(self) -> bool:
        return bool(self.flags & F.FLAG_LINKED)

    def close(self) -> None:
        """Release the map and file handle.  Idempotent: error paths and
        context managers may both close the same store."""
        if self._closed:
            return
        self._closed = True
        self._map.close()
        self._file.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "DatabaseStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- section rows ---------------------------------------------------------

    def _span(self, tag: bytes, entry) -> tuple[int, int]:
        """Start and end offsets of a count-prefixed section's entries."""
        offset, size = self.sections.get(tag, (0, 0))
        if size == 0:
            return offset, offset
        if size < F.COUNT.size:
            raise F.ClaFormatError(
                f"{self.path}: {_tag_name(tag)!r} section too short for "
                f"its entry count ({size} bytes)"
            )
        (count,) = F.COUNT.unpack_from(self._map, offset)
        start = offset + F.COUNT.size
        end = start + count * entry.size
        if end > offset + size:
            raise F.ClaFormatError(
                f"{self.path}: {_tag_name(tag)!r} section claims {count} "
                f"entries, past its end ({size} bytes)"
            )
        return start, end

    def _entries(self, tag: bytes, entry) -> Iterator[tuple]:
        start, end = self._span(tag, entry)
        return entry.iter_unpack(self._map[start:end])

    def _rows(self, data: bytes) -> list[PrimitiveAssignment]:
        """The full row decoder, for the static section and every block.
        Each string ref and enum byte is checked now; the location is
        built when it is first read."""
        strings, locations = self.strings, self._locations
        new = object.__new__
        rows = []
        append = rows.append
        try:
            for kind, strength, _r, dst, src, op, file_ref, line \
                    in F.ASSIGNMENT_ENTRY.iter_unpack(data):
                row = new(_Row)
                row.kind = _KINDS[kind]
                row.dst = strings[dst]
                row.src = strings[src]
                row.strength = _STRENGTHS[strength]
                row.op = strings[op]
                strings[file_ref]  # checked; the Location waits
                row._site = (locations, file_ref, line)
                append(row)
        except KeyError as exc:
            raise self._bad_enum(exc) from None
        return rows

    def _triples(self, data: bytes) -> list[Triple]:
        """The solvers' row decoder: ``(kind, dst, src)`` of each row.
        It checks what :meth:`_rows` checks, in the same order, so a
        corrupt row raises the same error through either decoder."""
        strings, kinds, strengths = self.strings, _KINDS, _STRENGTHS
        triples = []
        append = triples.append
        try:
            for kind, strength, _r, dst, src, op, file_ref, _line \
                    in F.ASSIGNMENT_ENTRY.iter_unpack(data):
                append((kinds[kind], strings[dst], strings[src]))
                strengths[strength]
                strings[op]
                strings[file_ref]
        except KeyError as exc:
            raise self._bad_enum(exc) from None
        return triples

    def _bad_enum(self, exc: KeyError) -> F.ClaFormatError:
        return F.ClaFormatError(
            f"{self.path}: bad assignment kind or strength {exc}")

    def _object(self, entry: tuple) -> ProgramObject:
        name, type_ref, file_ref, line, enclosing, kind, flags, _r = entry
        strings = self.strings
        obj = object.__new__(_Object)
        try:
            obj.kind = _OBJECT_KINDS[kind]
        except KeyError:
            raise F.ClaFormatError(
                f"{self.path}: bad object kind {kind}"
            ) from None
        obj.name = strings[name]
        obj.type_str = strings[type_ref]
        strings[file_ref]  # checked; the Location waits
        obj._site = (self._locations, file_ref, line)
        obj.enclosing_function = strings[enclosing]
        obj.is_global = bool(flags & F.OBJ_FLAG_GLOBAL)
        obj.may_point = bool(flags & F.OBJ_FLAG_MAY_POINT)
        obj.is_funcptr = bool(flags & F.OBJ_FLAG_FUNCPTR)
        return obj

    def _names(self, pos: int, count: int, block: str) -> list[str]:
        """``count`` string refs at ``pos`` in ``block``'s record."""
        end = pos + count * F.COUNT.size
        self._check_dynamic(end, block, "record arguments")
        strings = self.strings
        return [strings[ref]
                for (ref,) in F.COUNT.iter_unpack(self._map[pos:end])]

    def _check_dynamic(self, end: int, block: str, what: str) -> None:
        if end > self._dynamic_end:
            raise F.ClaFormatError(
                f"{self.path}: block {block!r}: {what} past the end of the "
                "dynamic section"
            )

    # -- lookup tables (one index scan each) ----------------------------------

    @cached_property
    def _global_entries(self) -> bytes:
        """The ``global`` section's entries, copied out of the map on
        first use: objects decode from this copy, so what a solve hands
        out decodes also after the store is closed."""
        start, end = self._span(F.SEC_GLOBAL, F.OBJECT_ENTRY)
        return self._map[start:end]

    @cached_property
    def _globals(self) -> dict[str, int]:
        """Object name -> offset of its entry in :attr:`_global_entries`."""
        data, strings = self._global_entries, self.strings
        return {
            strings[ref]: pos
            for pos, (ref,) in zip(range(0, len(data), F.OBJECT_ENTRY.size),
                                   F.OBJECT_NAME.iter_unpack(data))
        }

    @cached_property
    def _block_index(self) -> dict[str, int]:
        """Block name -> file offset of its header, every span checked."""
        base, size = self.sections.get(F.SEC_DYNAMIC, (0, 0))
        strings = self.strings
        blocks = {}
        for _h, name_ref, offset, block_size in self._entries(
                F.SEC_DYNIDX, F.DYNIDX_ENTRY):
            name = strings[name_ref]
            if block_size < F.BLOCK_HEADER.size or offset + block_size > size:
                raise F.ClaFormatError(
                    f"{self.path}: block {name!r} out of bounds "
                    f"(offset={offset} size={block_size}, dynamic "
                    f"section is {size} bytes)"
                )
            blocks[name] = base + offset
        return blocks

    @cached_property
    def _target_index(self) -> dict[str, list[str]]:
        """Simple name -> canonical names, sorted: the order every store
        answers in, whatever order the section holds them in."""
        strings = self.strings
        targets: dict[str, list[str]] = {}
        for _h, simple_ref, name_ref in self._entries(
                F.SEC_TARGET, F.TARGET_ENTRY):
            targets.setdefault(strings[simple_ref], []).append(
                strings[name_ref])
        for names in targets.values():
            names.sort()
        return targets

    # -- section access -------------------------------------------------------

    def fetch_statics(self) -> list[PrimitiveAssignment]:
        """The static section, parsed fresh from the map (uncounted)."""
        start, end = self._span(F.SEC_STATIC, F.ASSIGNMENT_ENTRY)
        return self._rows(self._map[start:end])

    def objects(self) -> Iterator[ProgramObject]:
        """Every object, decoded in file order (fresh objects)."""
        return map(self._object,
                   F.OBJECT_ENTRY.iter_unpack(self._global_entries))

    def object_names(self) -> Iterator[str]:
        """Every object name, in file order; decodes no object."""
        return iter(self._globals)

    def object_flags(self) -> ObjectFlags:
        """The function, function-pointer, non-pointer and temporary
        objects, from one pass over the ``global`` entries' name refs:
        each set selects its names by the entries' kind or flag bytes,
        sliced out of the section and mapped to 0/1 in C."""
        data, strings = self._global_entries, self.strings
        names = [strings[ref] for (ref,) in F.OBJECT_NAME.iter_unpack(data)]
        kinds = data[F.OBJECT_KIND_AT::F.OBJECT_ENTRY.size]
        flags = data[F.OBJECT_FLAGS_AT::F.OBJECT_ENTRY.size]

        def select(marks: bytes) -> frozenset[str]:
            return frozenset(compress(names, marks))

        return ObjectFlags(
            functions=select(kinds.translate(_IS_FUNCTION)),
            funcptrs=select(flags.translate(_IS_FUNCPTR)),
            non_pointers=select(flags.translate(_IS_NON_POINTER)),
            temps=select(kinds.translate(_IS_TEMP)),
        )

    def object_count(self) -> int:
        start, end = self._span(F.SEC_GLOBAL, F.OBJECT_ENTRY)
        return (end - start) // F.OBJECT_ENTRY.size

    def _assignment_count(self) -> int:
        """Total primitive assignments in the file (statics + all blocks)."""
        start, end = self._span(F.SEC_STATIC, F.ASSIGNMENT_ENTRY)
        total = (end - start) // F.ASSIGNMENT_ENTRY.size
        unpack, data = F.BLOCK_HEADER.unpack_from, self._map
        for pos in self._block_index.values():
            total += unpack(data, pos)[1]
        return total

    def find_targets(self, simple_name: str) -> list[str]:
        """Canonical object names for a source-level name (target section)."""
        return list(self._target_index.get(simple_name, ()))

    def get_object(self, name: str) -> ProgramObject | None:
        """One object, decoded the first time it is asked for and kept."""
        if name not in self._objects:
            pos = self._globals.get(name)
            self._objects[name] = None if pos is None else self._object(
                F.OBJECT_ENTRY.unpack_from(self._global_entries, pos))
        return self._objects[name]

    def static_triples(self) -> list[Triple]:
        """The solvers' counted read of the static section."""
        start, end = self._span(F.SEC_STATIC, F.ASSIGNMENT_ENTRY)
        triples = self._triples(self._map[start:end])
        self._count_statics(len(triples))
        return triples

    def load_triples(self, name: str) -> list[Triple]:
        """The solvers' counted read of one block: its rows' ``(kind,
        dst, src)``, parsed fresh from the map, and nothing else of it."""
        header = self._block_header(name)
        if header is None:
            return []
        _obj_ref, _flags, start, end = header
        triples = self._triples(self._map[start:end])
        self._count_block(name, len(triples))
        return triples

    def _block_header(self, name: str) -> tuple[int, int, int, int] | None:
        """``name``'s block header: its object's name ref, its flags, and
        the start and end of its rows, checked against the dynamic
        section (None: no such block)."""
        pos = self._block_index.get(name)
        if pos is None:
            return None
        obj_ref, nassign, flags, _r1, _r2 = F.BLOCK_HEADER.unpack_from(
            self._map, pos
        )
        start = pos + F.BLOCK_HEADER.size
        end = start + nassign * F.ASSIGNMENT_ENTRY.size
        self._check_dynamic(end, name, "assignments")
        return obj_ref, flags, start, end

    def fetch_block(self, name: str) -> Block | None:
        """Parse one dynamic block, fresh from the map (uncounted)."""
        header = self._block_header(name)
        if header is None:
            return None
        obj_ref, flags, pos, end = header
        data = self._map
        obj_name = self.strings[obj_ref]
        block = Block(assignments=self._rows(data[pos:end]))
        pos = end
        if flags & F.BLOCK_FLAG_FUNCTION:
            self._check_dynamic(pos + F.FUNC_RECORD_HEADER.size, name,
                                "function record")
            ret, variadic, _r, _r2b, nargs, file_ref, line = (
                F.FUNC_RECORD_HEADER.unpack_from(data, pos)
            )
            pos += F.FUNC_RECORD_HEADER.size
            block.function_record = FunctionRecord(
                function=obj_name, args=self._names(pos, nargs, name),
                ret=self.strings[ret], variadic=bool(variadic),
                location=self._locations[file_ref, line],
            )
            pos += nargs * F.COUNT.size
        if flags & F.BLOCK_FLAG_INDIRECT:
            self._check_dynamic(pos + F.INDIRECT_RECORD_HEADER.size, name,
                                "indirect-call record")
            ret, nargs, file_ref, line = F.INDIRECT_RECORD_HEADER.unpack_from(
                data, pos
            )
            pos += F.INDIRECT_RECORD_HEADER.size
            block.indirect_record = IndirectCallRecord(
                pointer=obj_name, args=self._names(pos, nargs, name),
                ret=self.strings[ret],
                location=self._locations[file_ref, line],
            )
        return block

    def call_sites(self) -> list[CallSiteRecord]:
        """The calls section (empty for files written before it existed —
        new sections are transparently additive, §4)."""
        strings, locations = self.strings, self._locations
        return [
            CallSiteRecord(
                caller=strings[caller], target=strings[target],
                indirect=bool(flags & F.CALL_FLAG_INDIRECT),
                location=locations[file_ref, line],
            )
            for caller, target, flags, _r1, _r2, file_ref, line
            in self._entries(F.SEC_CALLS, F.CALL_ENTRY)
        ]

    def block_names(self) -> Iterator[str]:
        return iter(self._block_index)


