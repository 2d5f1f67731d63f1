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

from ..engine.collector import collector_paused
from .reader import DatabaseStore
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
        with DatabaseStore.open(path) as database:
            store.absorb_object(database)
    return store


@collector_paused
def link_object_files(paths: Iterable[str], output_path: str) -> None:
    """Link object files from disk into one executable database.

    Runs with the cycle collector paused: the store it builds lives only
    until the database is written, and holds no reference cycle.
    """
    ObjectFileWriter(absorb_object_files(paths), linked=True).write(
        output_path)
