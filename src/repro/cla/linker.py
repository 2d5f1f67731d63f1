"""The CLA link phase.

Merges many object files into one "executable" database: global symbols
(objects whose names carry no file qualifier) are unified by name, blocks
for the same global are concatenated, and all indexing information is
recomputed (§4: "During this process we must recompute indexing
information").  The output uses the identical format, flagged as linked.
"""

from __future__ import annotations

from typing import Iterable

from ..ir.lower import UnitIR
from .reader import ObjectFileReader
from .store import MemoryStore
from .writer import ObjectFileWriter


class LinkError(Exception):
    """Incompatible inputs (e.g. mixed struct models)."""


def link_object_files(paths: Iterable[str], output_path: str) -> None:
    """Link object files from disk into one executable database."""
    paths = list(paths)
    if not paths:
        raise LinkError("no input object files")
    writer: ObjectFileWriter | None = None
    total_lines = 0
    for path in paths:
        with ObjectFileReader(path) as reader:
            if writer is None:
                writer = ObjectFileWriter(field_based=reader.field_based,
                                          linked=True)
            elif writer.field_based != reader.field_based:
                raise LinkError(
                    f"{path}: struct model differs from earlier inputs "
                    "(field-based vs field-independent)"
                )
            total_lines += reader.source_lines
            _absorb_reader(writer, reader)
    assert writer is not None
    writer.source_lines = total_lines
    writer.write(output_path)


def _absorb_reader(writer: ObjectFileWriter, reader: ObjectFileReader) -> None:
    for obj in reader.objects():
        writer._merge_object(obj.name, obj)
    for a in reader.static_assignments():
        writer.statics.append(a)
    writer.call_sites.extend(reader.call_sites())
    for name in reader.block_names():
        block = reader.load_block(name)
        if block is None:
            continue
        mine = writer._ensure_block(name)
        mine.assignments.extend(block.assignments)
        if block.function_record is not None:
            _merge_function_record(mine, block.function_record)
        if block.indirect_record is not None:
            if (
                mine.indirect_record is None
                or len(mine.indirect_record.args)
                < len(block.indirect_record.args)
            ):
                mine.indirect_record = block.indirect_record


def _merge_function_record(mine, theirs) -> None:
    """Merge a duplicate ``function_record`` for one function block.

    Two object files may both carry a record for the same function — the
    legitimate case is the *same* definition reaching the linker twice
    (e.g. an object file linked in two stages).  Conflicting records mean
    two different definitions of one external function; silently letting
    the last one win would bind call sites to whichever file happened to
    come later, so that is a link error (the moral equivalent of
    ``multiple definition of `f'``).
    """
    if mine.function_record is None:
        mine.function_record = theirs
        return
    current = mine.function_record
    same_shape = (
        len(current.args) == len(theirs.args)
        and current.ret == theirs.ret
        and current.variadic == theirs.variadic
    )
    if same_shape and current.location.brief() == theirs.location.brief():
        return  # identical definition seen twice: keep the first
    raise LinkError(
        f"duplicate definition of function '{current.function}': "
        f"{current.location.brief()} and {theirs.location.brief()}"
    )


def link_units(
    units: Iterable[UnitIR], output_path: str, field_based: bool = True
) -> None:
    """Compile-and-link shortcut: lowered units straight to an executable."""
    writer = ObjectFileWriter(field_based=field_based, linked=True)
    for unit in units:
        # add_unit accumulates writer.source_lines per unit, so the linked
        # database reports the same line total as the object-file route.
        writer.add_unit(unit)
    writer.write(output_path)


def link_units_in_memory(units: Iterable[UnitIR]) -> MemoryStore:
    """Link without serializing: the in-memory analogue of the link phase."""
    return MemoryStore(list(units))
