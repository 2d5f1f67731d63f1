"""Serializer for CLA object files and linked executables.

The same writer serves the compile phase (one translation unit's IR) and
the link phase (merged databases): "The 'executable' file produced has the
same format as the object files" (§4).  Either way its input is a
:class:`~repro.cla.store.MemoryStore`, which did the merging.
"""

from __future__ import annotations

import io
import os
import tempfile

from ..cfront.source import Location
from ..ir.lower import UnitIR
from ..ir.objects import ObjectKind
from ..ir.primitives import PrimitiveAssignment, PrimitiveKind
from . import objfile as F
from .store import MemoryStore, simple_name_of


def _ensure_fits_byte(enum_cls) -> None:
    """The on-disk format packs these enums into one-byte slots
    (OBJECT_ENTRY / ASSIGNMENT_ENTRY); a member above 255 would silently
    truncate through ``struct``'s range check into a corrupt database, so
    refuse to serialize instead."""
    for member in enum_cls:
        if not 0 <= int(member) <= 0xFF:
            raise F.ClaFormatError(
                f"{enum_cls.__name__}.{member.name} = {int(member)} does not"
                " fit the format's one-byte enum slot (0..255); bump the"
                " format VERSION and widen the entry struct instead"
            )


class ObjectFileWriter:
    """Serializes one linked :class:`~repro.cla.store.MemoryStore` to the
    CLA format; merging is the store's job, not the writer's."""

    def __init__(self, store: MemoryStore, linked: bool = False):
        self.store = store
        self.linked = linked

    def write(self, path: str) -> None:
        """Serialize to ``path`` atomically.

        The bytes land in a same-directory temp file first and are
        renamed over ``path`` with :func:`os.replace`, so a process
        killed mid-write can never leave a truncated ``.o``/``.cla`` at
        the final name — which matters doubly for content-keyed cache
        paths (:class:`~repro.driver.incremental.Workspace`), where a
        truncated file at the right name would otherwise be reused on
        every later build.
        """
        data = self.serialize()
        directory = os.path.dirname(os.path.abspath(path))
        fd, tmp_path = tempfile.mkstemp(
            prefix=os.path.basename(path) + ".", suffix=".tmp",
            dir=directory,
        )
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(data)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    def serialize(self) -> bytes:
        # Growing either enum past a byte requires a format bump, not a
        # silent truncation.
        _ensure_fits_byte(ObjectKind)
        _ensure_fits_byte(PrimitiveKind)
        store = self.store
        strtab = F.StringTable()

        def loc_refs(loc: Location) -> tuple[int, int]:
            return strtab[loc.filename], loc.line

        def pack_assignment(a: PrimitiveAssignment) -> bytes:
            file_ref, line = loc_refs(a.location)
            # ``_value_``, not ``value``: the Enum property runs a
            # Python-level ``__get__`` per row.
            return F.ASSIGNMENT_ENTRY.pack(
                int(a.kind), a.strength._value_, 0,
                strtab[a.dst], strtab[a.src],
                strtab[a.op], file_ref, line,
            )

        # global section ----------------------------------------------------
        global_buf = io.BytesIO()
        ordered_objects = sorted(store.objects.values(), key=lambda o: o.name)
        global_buf.write(F.COUNT.pack(len(ordered_objects)))
        for obj in ordered_objects:
            flags = 0
            if obj.is_global:
                flags |= F.OBJ_FLAG_GLOBAL
            if obj.may_point:
                flags |= F.OBJ_FLAG_MAY_POINT
            if obj.is_funcptr:
                flags |= F.OBJ_FLAG_FUNCPTR
            file_ref, line = loc_refs(obj.location)
            global_buf.write(
                F.OBJECT_ENTRY.pack(
                    strtab[obj.name], strtab[obj.type_str],
                    file_ref, line,
                    strtab[obj.enclosing_function],
                    int(obj.kind), flags, 0,
                )
            )

        # static section ----------------------------------------------------
        static_buf = io.BytesIO()
        statics = store.fetch_statics()
        static_buf.write(F.COUNT.pack(len(statics)))
        for a in statics:
            static_buf.write(pack_assignment(a))

        # target section ----------------------------------------------------
        target_entries = []
        for obj in ordered_objects:
            simple = simple_name_of(obj.name)
            target_entries.append(
                (F.name_hash(simple), strtab[simple],
                 strtab[obj.name])
            )
        target_entries.sort()
        target_buf = io.BytesIO()
        target_buf.write(F.COUNT.pack(len(target_entries)))
        for entry in target_entries:
            target_buf.write(F.TARGET_ENTRY.pack(*entry))

        # dynamic section + index ---------------------------------------------
        dynamic_buf = io.BytesIO()
        index_entries: list[tuple[int, int, int, int]] = []
        blocks = store.blocks()
        for name in sorted(blocks):
            block = blocks[name]
            offset = dynamic_buf.tell()
            flags = 0
            if block.function_record is not None:
                flags |= F.BLOCK_FLAG_FUNCTION
            if block.indirect_record is not None:
                flags |= F.BLOCK_FLAG_INDIRECT
            dynamic_buf.write(
                F.BLOCK_HEADER.pack(
                    strtab[name], len(block.assignments), flags, 0, 0
                )
            )
            for a in block.assignments:
                dynamic_buf.write(pack_assignment(a))
            if block.function_record is not None:
                r = block.function_record
                file_ref, line = loc_refs(r.location)
                dynamic_buf.write(
                    F.FUNC_RECORD_HEADER.pack(
                        strtab[r.ret], int(r.variadic), 0, 0,
                        len(r.args), file_ref, line,
                    )
                )
                for arg in r.args:
                    dynamic_buf.write(F.COUNT.pack(strtab[arg]))
            if block.indirect_record is not None:
                r = block.indirect_record
                file_ref, line = loc_refs(r.location)
                dynamic_buf.write(
                    F.INDIRECT_RECORD_HEADER.pack(
                        strtab[r.ret], len(r.args), file_ref, line,
                    )
                )
                for arg in r.args:
                    dynamic_buf.write(F.COUNT.pack(strtab[arg]))
            size = dynamic_buf.tell() - offset
            index_entries.append(
                (F.name_hash(name), strtab[name], offset, size)
            )

        index_entries.sort()
        index_buf = io.BytesIO()
        index_buf.write(F.COUNT.pack(len(index_entries)))
        for entry in index_entries:
            index_buf.write(F.DYNIDX_ENTRY.pack(*entry))

        # calls section ------------------------------------------------------
        calls_buf = io.BytesIO()
        call_sites = store.call_sites()
        calls_buf.write(F.COUNT.pack(len(call_sites)))
        for record in call_sites:
            file_ref, line = loc_refs(record.location)
            flags = F.CALL_FLAG_INDIRECT if record.indirect else 0
            calls_buf.write(F.CALL_ENTRY.pack(
                strtab[record.caller], strtab[record.target],
                flags, 0, 0, file_ref, line,
            ))

        # assemble -------------------------------------------------------------
        sections = [
            (F.SEC_STRTAB, strtab.data()),
            (F.SEC_GLOBAL, global_buf.getvalue()),
            (F.SEC_STATIC, static_buf.getvalue()),
            (F.SEC_TARGET, target_buf.getvalue()),
            (F.SEC_DYNAMIC, dynamic_buf.getvalue()),
            (F.SEC_DYNIDX, index_buf.getvalue()),
            (F.SEC_CALLS, calls_buf.getvalue()),
        ]
        flags = F.STRUCT_MODEL_FLAGS[store.struct_model]
        if self.linked:
            flags |= F.FLAG_LINKED
        header_size = F.HEADER.size + len(sections) * F.SECTION_ENTRY.size
        out = io.BytesIO()
        out.write(
            F.HEADER.pack(F.MAGIC, F.VERSION, flags, len(sections), 0,
                          store.source_lines, 0)
        )
        offset = header_size
        for tag, data in sections:
            out.write(F.SECTION_ENTRY.pack(tag, offset, len(data)))
            offset += len(data)
        for _tag, data in sections:
            out.write(data)
        return out.getvalue()


def write_unit(unit: UnitIR, path: str) -> None:
    """Compile-phase convenience: one translation unit -> one object file."""
    ObjectFileWriter(MemoryStore(unit)).write(path)
