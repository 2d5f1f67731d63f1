"""mmap-backed reader for CLA object files, with demand loading.

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
leaving the format as it is, each reader scans an index section once, the
first time it needs it, into a dict of names to ints: object name ->
``global`` entry offset, block name -> block header offset, simple name
-> canonical names.  The tables live as long as the reader (one open) and
hold only ints and names the string table already holds: a few hundred
KiB for a 9.6k-LoC database.  Only the index sections are scanned; the
static section and each block are still parsed on demand, each with one
``Struct.iter_unpack`` pass over its rows, so Table 3's *loaded* column
is what in-place lookups gave.
"""

from __future__ import annotations

import mmap
from functools import cached_property
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
from .store import Block, LoadStats


def _members(enum_cls) -> dict:
    """Enum members by their on-disk value: one dict hit per row instead
    of an enum call."""
    return {member.value: member for member in enum_cls}


_KINDS = _members(PrimitiveKind)
_STRENGTHS = _members(Strength)
_OBJECT_KINDS = _members(ObjectKind)


def _tag_name(tag: bytes) -> str:
    return tag.rstrip(b"\x00").decode("ascii", "replace")


class _Locations(dict):
    """Interned :class:`Location` per ``(file_ref, line)``: rows share the
    (immutable) location instead of building one each, so a block read
    again from a long-lived store (dependence chains in the serve daemon)
    builds no new locations."""

    def __init__(self, strings: F.StringReader):
        super().__init__()
        self._strings = strings

    def __missing__(self, key: tuple[int, int]) -> Location:
        file_ref, line = key
        filename = self._strings[file_ref]
        location = Location(filename, line) if filename else Location.unknown()
        self[key] = location
        return location


class ObjectFileReader:
    """Random access to one CLA object file through mmap."""

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
        # Validate size / magic / version / section bounds up front, so a
        # truncated or corrupt database fails with one clear error instead
        # of a struct.error from whichever unpack happens to fall off the
        # end of the map first.
        file_size = len(self._map)
        if file_size < F.HEADER.size:
            self.close()
            raise F.ClaFormatError(
                f"{path}: truncated header ({file_size} bytes, "
                f"CLA header is {F.HEADER.size})"
            )
        header = F.HEADER.unpack_from(self._map, 0)
        magic, version, self.flags, nsections, _r32, self.source_lines, _r64 = header
        if magic != F.MAGIC:
            self.close()
            raise F.ClaFormatError(f"{path}: bad magic {magic!r}")
        if version != F.VERSION:
            self.close()
            raise F.ClaFormatError(f"{path}: unsupported version {version}")
        table_end = F.HEADER.size + nsections * F.SECTION_ENTRY.size
        if table_end > file_size:
            self.close()
            raise F.ClaFormatError(
                f"{path}: truncated section table "
                f"({nsections} sections claimed, {file_size} bytes)"
            )
        self.sections: dict[bytes, tuple[int, int]] = {}
        pos = F.HEADER.size
        for _ in range(nsections):
            tag, offset, size = F.SECTION_ENTRY.unpack_from(self._map, pos)
            if offset + size > file_size:
                self.close()
                raise F.ClaFormatError(
                    f"{path}: section {_tag_name(tag)!r} out of bounds "
                    f"(offset={offset} size={size}, file is "
                    f"{file_size} bytes)"
                )
            self.sections[tag] = (offset, size)
            pos += F.SECTION_ENTRY.size
        str_off, str_size = self.sections.get(F.SEC_STRTAB, (0, 0))
        self.strings = F.StringReader(self._map, str_off, str_size, path)
        self._locations = _Locations(self.strings)
        self._dynamic_end = sum(self.sections.get(F.SEC_DYNAMIC, (0, 0)))

    @property
    def field_based(self) -> bool:
        return bool(self.flags & F.FLAG_FIELD_BASED)

    @property
    def linked(self) -> bool:
        return bool(self.flags & F.FLAG_LINKED)

    def close(self) -> None:
        """Release the map and file handle.  Idempotent: error paths and
        context managers may both close the same reader."""
        if self._closed:
            return
        self._closed = True
        self._map.close()
        self._file.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "ObjectFileReader":
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

    def _assignments(self, rows: bytes) -> list[PrimitiveAssignment]:
        strings, locations = self.strings, self._locations
        try:
            return [
                PrimitiveAssignment(
                    _KINDS[kind], strings[dst], strings[src],
                    _STRENGTHS[strength], strings[op],
                    locations[file_ref, line],
                )
                for kind, strength, _r, dst, src, op, file_ref, line
                in F.ASSIGNMENT_ENTRY.iter_unpack(rows)
            ]
        except KeyError as exc:
            raise F.ClaFormatError(
                f"{self.path}: bad assignment kind or strength {exc}"
            ) from None

    def _object(self, entry: tuple) -> ProgramObject:
        name, type_ref, file_ref, line, enclosing, kind, flags, _r = entry
        strings = self.strings
        try:
            kind = _OBJECT_KINDS[kind]
        except KeyError:
            raise F.ClaFormatError(
                f"{self.path}: bad object kind {kind}"
            ) from None
        return ProgramObject(
            strings[name], kind, strings[type_ref],
            self._locations[file_ref, line], strings[enclosing],
            bool(flags & F.OBJ_FLAG_GLOBAL),
            bool(flags & F.OBJ_FLAG_MAY_POINT),
            bool(flags & F.OBJ_FLAG_FUNCPTR),
        )

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

    # -- lookup tables (one index scan each, on first use) --------------------

    @cached_property
    def _object_index(self) -> dict[str, int]:
        """Object name -> offset of its ``global`` entry."""
        start, end = self._span(F.SEC_GLOBAL, F.OBJECT_ENTRY)
        strings = self.strings
        names = [strings[entry[0]] for entry
                 in F.OBJECT_ENTRY.iter_unpack(self._map[start:end])]
        return dict(zip(names, range(start, end, F.OBJECT_ENTRY.size)))

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
        """Simple name -> canonical names, in index order."""
        strings = self.strings
        targets: dict[str, list[str]] = {}
        for _h, simple_ref, name_ref in self._entries(
                F.SEC_TARGET, F.TARGET_ENTRY):
            targets.setdefault(strings[simple_ref], []).append(
                strings[name_ref])
        return targets

    # -- section access -------------------------------------------------------

    def static_assignments(self) -> list[PrimitiveAssignment]:
        start, end = self._span(F.SEC_STATIC, F.ASSIGNMENT_ENTRY)
        return self._assignments(self._map[start:end])

    def objects(self) -> Iterator[ProgramObject]:
        return map(self._object, self._entries(F.SEC_GLOBAL, F.OBJECT_ENTRY))

    def object_count(self) -> int:
        start, end = self._span(F.SEC_GLOBAL, F.OBJECT_ENTRY)
        return (end - start) // F.OBJECT_ENTRY.size

    def assignment_count(self) -> int:
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

    def find_object(self, name: str) -> ProgramObject | None:
        """One object's metadata by canonical name (a fresh object)."""
        pos = self._object_index.get(name)
        if pos is None:
            return None
        return self._object(F.OBJECT_ENTRY.unpack_from(self._map, pos))

    def load_block(self, name: str) -> Block | None:
        """Parse one dynamic block.  Each call re-reads from the map."""
        pos = self._block_index.get(name)
        if pos is None:
            return None
        data = self._map
        obj_ref, nassign, flags, _r1, _r2 = F.BLOCK_HEADER.unpack_from(
            data, pos
        )
        pos += F.BLOCK_HEADER.size
        end = pos + nassign * F.ASSIGNMENT_ENTRY.size
        self._check_dynamic(end, name, "assignments")
        obj_name = self.strings[obj_ref]
        obj = self.find_object(obj_name)
        if obj is None:
            obj = ProgramObject(name=obj_name, kind=ObjectKind.VARIABLE)
        block = Block(obj=obj, assignments=self._assignments(data[pos:end]))
        pos = end
        if flags & F.BLOCK_FLAG_FUNCTION:
            self._check_dynamic(pos + F.FUNC_RECORD_HEADER.size, name,
                                "function record")
            ret, variadic, _r, _r2b, nargs, file_ref, line = (
                F.FUNC_RECORD_HEADER.unpack_from(data, pos)
            )
            pos += F.FUNC_RECORD_HEADER.size
            block.function_record = FunctionRecord(
                function=obj.name, args=self._names(pos, nargs, name),
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
                pointer=obj.name, args=self._names(pos, nargs, name),
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


class DatabaseStore:
    """ConstraintStore over an :class:`ObjectFileReader` with accounting.

    Every :meth:`load_block` call physically re-parses from the map (the
    reader keeps nothing); the *accounting* follows the protocol contract:
    a block's assignments count into ``loaded``/``in_core`` exactly once,
    and each re-read counts into ``reloads`` — it is real I/O under the
    discard-and-reload strategy, but not new coverage or residency, so
    ``in_core <= loaded <= in_file`` holds at all times.  The analyzer's
    :meth:`discard` report then shrinks ``in_core`` to what it retained.
    Wrap the store in :class:`repro.cla.cache.BlockCache` for an actual
    keep-or-discard retention policy with exact residency accounting.
    """

    def __init__(self, reader: ObjectFileReader):
        self.reader = reader
        self.stats = LoadStats(in_file=reader.assignment_count())
        self._object_cache: dict[str, ProgramObject | None] = {}
        self._statics: list[PrimitiveAssignment] | None = None
        self._statics_loaded = False
        self._loaded_blocks: set[str] = set()

    @classmethod
    def open(cls, path: str) -> "DatabaseStore":
        reader = ObjectFileReader(path)
        try:
            return cls(reader)
        except Exception:
            # The mmap succeeded but the store could not be built (e.g. a
            # corrupt dynamic index found while counting assignments):
            # never leak the map/file handle.
            reader.close()
            raise

    def close(self) -> None:
        self.reader.close()

    def __enter__(self) -> "DatabaseStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def static_assignments(self) -> list[PrimitiveAssignment]:
        statics = self.fetch_statics()
        if not self._statics_loaded:
            self._statics_loaded = True
            self.stats.count_load(len(statics), blocks=0)
        return statics

    def load_block(self, name: str) -> Block | None:
        block = self.reader.load_block(name)
        if block is not None:
            n = len(block.assignments)
            if name in self._loaded_blocks:
                # Real I/O (the reader re-parsed), but the block's
                # residency and coverage were already counted once.
                self.stats.count_reload(n)
            else:
                self._loaded_blocks.add(name)
                self.stats.count_load(n)
        return block

    def fetch_block(self, name: str) -> Block | None:
        """Uncounted parse — the :class:`BlockCache` accounting seam."""
        return self.reader.load_block(name)

    def fetch_statics(self) -> list[PrimitiveAssignment]:
        """The static section, parsed once and memoized (uncounted)."""
        if self._statics is None:
            self._statics = self.reader.static_assignments()
        return self._statics

    def object_names(self) -> Iterator[str]:
        """Every object name; decodes the global section in one pass and
        caches each object, so a following :meth:`get_object` sweep does
        not decode it again."""
        cache = self._object_cache
        for obj in self.reader.objects():
            cache.setdefault(obj.name, obj)
            yield obj.name

    def get_object(self, name: str) -> ProgramObject | None:
        if name not in self._object_cache:
            self._object_cache[name] = self.reader.find_object(name)
        return self._object_cache[name]

    def find_targets(self, simple_name: str) -> list[str]:
        return self.reader.find_targets(simple_name)

    def block_names(self):
        return self.reader.block_names()

    def call_sites(self):
        return self.reader.call_sites()

    def discard(self, assignments_kept: int) -> None:
        self.stats.in_core = assignments_kept
