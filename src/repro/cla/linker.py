"""The CLA link phase.

Merges many object files into one "executable" database: global symbols
(objects whose names carry no file qualifier) are unified by name, blocks
for the same global are concatenated, and all indexing information is
recomputed (§4: "During this process we must recompute indexing
information").  The output uses the identical format, flagged as linked.
The merge itself is :class:`~repro.cla.store.MemoryStore`'s; this module
feeds it object files and writes the result.
"""

from __future__ import annotations

from typing import Iterable

from .reader import ObjectFileReader
from .store import LinkError, MemoryStore
from .writer import ObjectFileWriter


def absorb_object_files(paths: Iterable[str]) -> MemoryStore:
    """Link object files into one in-memory store; the first file sets
    the struct model every later one must share."""
    paths = list(paths)
    if not paths:
        raise LinkError("no input object files")
    store = MemoryStore()
    for path in paths:
        with ObjectFileReader(path) as reader:
            store.absorb_object(reader)
    return store


def link_object_files(paths: Iterable[str], output_path: str) -> None:
    """Link object files from disk into one executable database."""
    ObjectFileWriter(absorb_object_files(paths), linked=True).write(
        output_path)
