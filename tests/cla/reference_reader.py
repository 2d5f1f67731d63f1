"""The per-row CLA decoder, kept as a reference for the reader's tests.

This is how :class:`repro.cla.reader.ObjectFileReader` used to read a
file: every lookup binary-searches a sorted index section in the mmap,
and every assignment, object and record is decoded with one
``unpack_from`` and enum calls.  The shipped reader builds dict tables
and batch-decodes rows instead; ``test_reader_differential.py`` checks
that the two agree on real databases.  It reads only well-formed files:
none of the reader's corruption checks are repeated here.
"""

from __future__ import annotations

import mmap

from repro.cfront.source import Location
from repro.cla import objfile as F
from repro.cla.store import Block
from repro.ir.objects import ObjectKind, ProgramObject
from repro.ir.primitives import (
    CallSiteRecord,
    FunctionRecord,
    IndirectCallRecord,
    PrimitiveAssignment,
    PrimitiveKind,
)
from repro.ir.strength import Strength


class ReferenceReader:
    def __init__(self, path: str):
        self._file = open(path, "rb")
        self._map = mmap.mmap(self._file.fileno(), 0, access=mmap.ACCESS_READ)
        _magic, _version, self.flags, nsections, _r32, self.source_lines, \
            _r64 = F.HEADER.unpack_from(self._map, 0)
        self.sections: dict[bytes, tuple[int, int]] = {}
        pos = F.HEADER.size
        for _ in range(nsections):
            tag, offset, size = F.SECTION_ENTRY.unpack_from(self._map, pos)
            self.sections[tag] = (offset, size)
            pos += F.SECTION_ENTRY.size
        self._str_base, self._str_size = self.sections.get(
            F.SEC_STRTAB, (0, 0))
        self._dynamic_base = self.sections.get(F.SEC_DYNAMIC, (0, 0))[0]

    def close(self) -> None:
        self._map.close()
        self._file.close()

    def __enter__(self) -> "ReferenceReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- decoding helpers ---------------------------------------------------

    def _string(self, ref: int) -> str:
        start = self._str_base + ref
        end = self._map.find(b"\x00", start, self._str_base + self._str_size)
        if end == -1:
            end = self._str_base + self._str_size
        return bytes(self._map[start:end]).decode("utf-8", errors="replace")

    def _location(self, file_ref: int, line: int) -> Location:
        filename = self._string(file_ref)
        if not filename:
            return Location.unknown()
        return Location(filename, line)

    def _read_assignment(self, pos: int) -> tuple[PrimitiveAssignment, int]:
        kind, strength, _r, dst, src, op, file_ref, line = (
            F.ASSIGNMENT_ENTRY.unpack_from(self._map, pos)
        )
        a = PrimitiveAssignment(
            kind=PrimitiveKind(kind),
            dst=self._string(dst),
            src=self._string(src),
            strength=Strength(strength),
            op=self._string(op),
            location=self._location(file_ref, line),
        )
        return a, pos + F.ASSIGNMENT_ENTRY.size

    def _object_at(self, pos: int) -> ProgramObject:
        name, type_ref, file_ref, line, enclosing, kind, flags, _r = (
            F.OBJECT_ENTRY.unpack_from(self._map, pos)
        )
        return ProgramObject(
            name=self._string(name),
            kind=ObjectKind(kind),
            type_str=self._string(type_ref),
            location=self._location(file_ref, line),
            enclosing_function=self._string(enclosing),
            is_global=bool(flags & F.OBJ_FLAG_GLOBAL),
            may_point=bool(flags & F.OBJ_FLAG_MAY_POINT),
            is_funcptr=bool(flags & F.OBJ_FLAG_FUNCPTR),
        )

    def _count(self, section: bytes) -> tuple[int, int]:
        """(entry count, offset of the first entry); (0, 0) if absent."""
        offset, size = self.sections.get(section, (0, 0))
        if size == 0:
            return 0, 0
        (count,) = F.COUNT.unpack_from(self._map, offset)
        return count, offset + F.COUNT.size

    def _arg_names(self, pos: int, nargs: int) -> tuple[list[str], int]:
        args = []
        for _ in range(nargs):
            (ref,) = F.COUNT.unpack_from(self._map, pos)
            args.append(self._string(ref))
            pos += F.COUNT.size
        return args, pos

    # -- sections -------------------------------------------------------------

    def static_assignments(self) -> list[PrimitiveAssignment]:
        count, pos = self._count(F.SEC_STATIC)
        out = []
        for _ in range(count):
            a, pos = self._read_assignment(pos)
            out.append(a)
        return out

    def objects(self) -> list[ProgramObject]:
        count, pos = self._count(F.SEC_GLOBAL)
        return [self._object_at(pos + i * F.OBJECT_ENTRY.size)
                for i in range(count)]

    def object_count(self) -> int:
        return self._count(F.SEC_GLOBAL)[0]

    def assignment_count(self) -> int:
        total = self._count(F.SEC_STATIC)[0]
        count, pos = self._count(F.SEC_DYNIDX)
        for _ in range(count):
            _h, _n, block_offset, _s = F.DYNIDX_ENTRY.unpack_from(
                self._map, pos)
            total += F.BLOCK_HEADER.unpack_from(
                self._map, self._dynamic_base + block_offset)[1]
            pos += F.DYNIDX_ENTRY.size
        return total

    def call_sites(self) -> list[CallSiteRecord]:
        count, pos = self._count(F.SEC_CALLS)
        out = []
        for _ in range(count):
            caller, target, flags, _r1, _r2, file_ref, line = (
                F.CALL_ENTRY.unpack_from(self._map, pos)
            )
            out.append(CallSiteRecord(
                caller=self._string(caller),
                target=self._string(target),
                indirect=bool(flags & F.CALL_FLAG_INDIRECT),
                location=self._location(file_ref, line),
            ))
            pos += F.CALL_ENTRY.size
        return out

    def block_names(self) -> list[str]:
        count, pos = self._count(F.SEC_DYNIDX)
        names = []
        for _ in range(count):
            _h, name_ref, _o, _s = F.DYNIDX_ENTRY.unpack_from(self._map, pos)
            names.append(self._string(name_ref))
            pos += F.DYNIDX_ENTRY.size
        return names

    # -- binary-searched lookups -------------------------------------------------

    def _index_lookup(self, section: bytes, entry_struct, name: str,
                      name_field: int) -> list[tuple]:
        """All index entries whose hashed name equals ``name``."""
        count, base = self._count(section)
        esize = entry_struct.size
        want = F.name_hash(name)
        lo, hi = 0, count
        while lo < hi:
            mid = (lo + hi) // 2
            (h,) = F.COUNT.unpack_from(self._map, base + mid * esize)
            if h < want:
                lo = mid + 1
            else:
                hi = mid
        out = []
        i = lo
        while i < count:
            entry = entry_struct.unpack_from(self._map, base + i * esize)
            if entry[0] != want:
                break
            if self._string(entry[name_field]) == name:
                out.append(entry)
            i += 1
        return out

    def find_targets(self, simple_name: str) -> list[str]:
        hits = self._index_lookup(F.SEC_TARGET, F.TARGET_ENTRY, simple_name, 1)
        return [self._string(entry[2]) for entry in hits]

    def find_object(self, name: str) -> ProgramObject | None:
        count, base = self._count(F.SEC_GLOBAL)
        esize = F.OBJECT_ENTRY.size
        lo, hi = 0, count
        while lo < hi:
            mid = (lo + hi) // 2
            (name_ref,) = F.COUNT.unpack_from(self._map, base + mid * esize)
            mid_name = self._string(name_ref)
            if mid_name < name:
                lo = mid + 1
            elif mid_name > name:
                hi = mid
            else:
                return self._object_at(base + mid * esize)
        return None

    def load_block(self, name: str) -> Block | None:
        hits = self._index_lookup(F.SEC_DYNIDX, F.DYNIDX_ENTRY, name, 1)
        if not hits:
            return None
        _h, _name_ref, block_offset, _size = hits[0]
        pos = self._dynamic_base + block_offset
        obj_ref, nassign, flags, _r1, _r2 = F.BLOCK_HEADER.unpack_from(
            self._map, pos
        )
        pos += F.BLOCK_HEADER.size
        obj = self.find_object(self._string(obj_ref))
        if obj is None:
            obj = ProgramObject(name=self._string(obj_ref),
                                kind=ObjectKind.VARIABLE)
        block = Block(obj=obj)
        for _ in range(nassign):
            a, pos = self._read_assignment(pos)
            block.assignments.append(a)
        if flags & F.BLOCK_FLAG_FUNCTION:
            ret, variadic, _r, _r2b, nargs, file_ref, line = (
                F.FUNC_RECORD_HEADER.unpack_from(self._map, pos)
            )
            args, pos = self._arg_names(pos + F.FUNC_RECORD_HEADER.size,
                                        nargs)
            block.function_record = FunctionRecord(
                function=obj.name, args=args, ret=self._string(ret),
                variadic=bool(variadic),
                location=self._location(file_ref, line),
            )
        if flags & F.BLOCK_FLAG_INDIRECT:
            ret, nargs, file_ref, line = F.INDIRECT_RECORD_HEADER.unpack_from(
                self._map, pos
            )
            args, pos = self._arg_names(
                pos + F.INDIRECT_RECORD_HEADER.size, nargs)
            block.indirect_record = IndirectCallRecord(
                pointer=obj.name, args=args, ret=self._string(ret),
                location=self._location(file_ref, line),
            )
        return block
