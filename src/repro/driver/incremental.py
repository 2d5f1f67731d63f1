"""The workspace: a multi-file project that an edit costs one unit.

The architecture's raison d'etre (§4): "if we are to build interactive
tools based on an analysis, then it is important to avoid
re-parsing/reprocessing the entire code base when changes are made to one
or two files."  CLA makes the compile phase per-file and the link phase a
cheap database merge, so an edit costs one recompile plus a relink.

:class:`Workspace` implements that loop.  It holds each current source's
compiled unit under a content key: a hash of the source, of every header
and of the compile options.  A build compiles only the sources whose key
it does not hold, links the held units in memory
(:class:`~repro.cla.store.MemoryStore`) and solves that store.  Each
held unit is grouped into blocks once, when it is compiled or read back
(:class:`~repro.cla.store.UnitStore`), so a link merges blocks instead
of grouping rows.  The units displaced by the last build that changed
the held set stay held until the next such build, so undoing an edit
compiles nothing and reads nothing, and :meth:`Workspace.held_stores`
tells a caller which held units a build would use before it compiles or
reads anything.  A content key is taken again only when its source, a
header or a compile option changed.  With a ``cache_dir`` every compiled
unit also goes to an object file named by its key, the persistent cache:
a unit the workspace no longer holds (an older undo, a restarted daemon)
is read back from it, not recompiled.
The executable database is written only when a caller asks for its path
(:meth:`Workspace.build`).

A key cannot see files outside the workspace, nor which sources a unit
``#include``s, so each unit also records every file its preprocessing
read, by name and sha256 (``UnitIR.includes``, kept in ``<key>.deps``
beside the object file).  A held or cached unit is reused only while each
of those includes still resolves to the same file and text.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass

from ..cla.linker import absorb_object_files
from ..cla.objfile import ClaFormatError
from ..cla.store import MemoryStore, UnitStore
from ..cla.writer import ObjectFileWriter
from ..depend.analysis import DependenceResult
from ..engine.pipeline import BuildError, CompileOptions, Pipeline, read_source
from ..ir.lower import UnitIR
from ..ir.strength import Strength
from ..solvers.base import PointsToResult


def _include_record(rows) -> dict:
    """A ``<key>.deps`` record back as ``UnitIR.includes``.  It comes
    from disk, so a row that is not four strings and the bool ``angled``
    is a ValueError, not a crash when the include is resolved."""
    includes = {}
    for name, angled, includer, read, digest in rows:
        if not (isinstance(angled, bool) and all(
                isinstance(s, str) for s in (name, includer, read, digest))):
            raise ValueError(f"malformed include record row {name!r}")
        includes[(name, angled, includer)] = (read, digest)
    return includes


@dataclass
class WorkspaceStats:
    """What the last build actually did."""

    compiled: int = 0  # units (re)compiled
    reused: int = 0  # units held in memory or read back from the cache
    read: int = 0  # of those, units read back from object files
    linked: bool = False


class Workspace:
    """A multi-file project: sources in; held units, a linked store,
    solved results and, on request, an executable database out.

    Sources added with :meth:`add_source` can ``#include`` each other and
    any header added with :meth:`add_header`.  The workspace compiles
    with its own copy of ``options``: its files, include path and include
    cache never reach the caller's object.  Without ``cache_dir`` the
    workspace writes no object files.  ``jobs`` is the compile
    parallelism (``None``: every core); values above one compile pending
    units in worker processes, sound because CLA units are independent.
    """

    def __init__(
        self,
        cache_dir: str | None = None,
        options: CompileOptions | None = None,
        jobs: int | None = 1,
    ):
        self.pipeline = Pipeline(options=copy.deepcopy(options), jobs=jobs)
        if cache_dir is not None:
            os.makedirs(cache_dir, exist_ok=True)
        self.cache_dir = cache_dir
        self._tempdir: tempfile.TemporaryDirectory | None = None
        self._sources: dict[str, str] = {}
        self._headers: dict[str, str] = {}
        #: content key -> unit grouped into blocks, for the current
        #: sources (plus the units a failed build compiled, until the next
        #: good one)
        self._held: dict[str, UnitStore] = {}
        #: the units displaced by the last build that changed the held
        #: set, kept until the next such build: an undo finds its unit here
        self._retained: dict[str, UnitStore] = {}
        #: the content keys, file-name order, of the last good build
        self._keys: list[str] = []
        #: the key memo: the sha256 of every header and the options, the
        #: options signature it was taken under, and each source's key
        self._shared = None
        self._shared_options = b""
        self._source_keys: dict[str, str] = {}
        #: the last :meth:`held_stores` pass, for the next build to use
        self._planned: tuple | None = None
        self._stores: list[UnitStore] = []
        self._units: list[UnitIR] = []
        self._store: MemoryStore | None = None
        self._points_to: dict[str, PointsToResult] = {}
        self._database: str | None = None
        self.stats = WorkspaceStats()

    @classmethod
    def from_directory(
        cls, directory: str, options: CompileOptions | None = None
    ) -> "Workspace":
        """A workspace of every ``.c`` file under ``directory``
        (recursively); its ``.h`` files become headers, and
        ``directory`` joins the workspace's include path."""
        workspace = cls(options=options)
        workspace.options.include_dirs.append(directory)
        for root, _dirs, files in os.walk(directory):
            for name in sorted(files):
                path = os.path.join(root, name)
                if name.endswith(".c"):
                    workspace.add_file(path)
                elif name.endswith(".h"):
                    workspace.add_header(path, read_source(path))
        return workspace

    @property
    def options(self) -> CompileOptions:
        return self.pipeline.options

    # -- source management -----------------------------------------------------

    def add_source(self, filename: str, text: str) -> "Workspace":
        if filename in self._headers:
            raise ValueError(f"{filename!r} is already a header")
        if self._sources.get(filename) != text:
            self._source_keys.pop(filename, None)
        self._sources[filename] = text
        self.options.virtual_files[filename] = text
        return self

    def add_file(self, path: str) -> "Workspace":
        return self.add_source(path, read_source(path))

    def add_header(self, filename: str, text: str) -> "Workspace":
        """A header visible to ``#include`` but not compiled on its own."""
        if filename in self._sources:
            raise ValueError(f"{filename!r} is already a source")
        if self._headers.get(filename) != text:
            self._shared = None
        self._headers[filename] = text
        self.options.virtual_files[filename] = text
        return self

    def update_source(self, filename: str, text: str) -> "Workspace":
        if filename not in self._sources:
            raise KeyError(f"unknown source {filename!r}")
        return self.add_source(filename, text)

    def update_header(self, filename: str, text: str) -> "Workspace":
        if filename not in self._headers:
            raise KeyError(f"unknown header {filename!r}")
        return self.add_header(filename, text)

    def remove_source(self, filename: str) -> "Workspace":
        if filename not in self._sources:
            raise KeyError(f"unknown source {filename!r}")
        del self._sources[filename]
        del self.options.virtual_files[filename]
        self._source_keys.pop(filename, None)
        return self

    def remove_header(self, filename: str) -> "Workspace":
        if filename not in self._headers:
            raise KeyError(f"unknown header {filename!r}")
        del self._headers[filename]
        del self.options.virtual_files[filename]
        self._shared = None
        return self

    def sources(self) -> list[str]:
        return sorted(self._sources)

    # -- building ---------------------------------------------------------------

    def _content_keys(self) -> dict[str, str]:
        """Every source's content key, in file-name order: a hash of the
        source, of every header and of the compile options.  Headers are
        hashed wholesale: cheaper than tracking the real include graph and
        still correct (any header edit re-keys all).  A key is taken again
        only when its source, a header or an option changed since; the
        options are compared on every call, since they can change in
        place (``include_dirs``, ``predefined``)."""
        options = self.options
        signature = repr((
            options.field_based, options.struct_model, options.heap_model,
            options.track_strings, options.tolerant,
            sorted(options.predefined.items()), options.include_dirs,
        )).encode()
        if self._shared is None or signature != self._shared_options:
            shared = hashlib.sha256()
            for name in sorted(self._headers):
                shared.update(f"{name}\0{self._headers[name]}\0".encode())
            shared.update(signature)
            self._shared, self._shared_options = shared, signature
            self._source_keys = {}
        keys = {}
        for filename in sorted(self._sources):
            key = self._source_keys.get(filename)
            if key is None:
                h = self._shared.copy()
                h.update(f"\0{filename}\0{self._sources[filename]}".encode())
                key = self._source_keys[filename] = h.hexdigest()[:24]
            keys[filename] = key
        return keys

    def _object_path(self, key: str, suffix: str = ".o") -> str:
        return os.path.join(self.cache_dir, key + suffix)

    def _write_object(self, key: str, store: UnitStore) -> None:
        """Cache a unit under ``key``, written from its grouped store:
        its include record first, so an object file never exists without
        the record that vouches for it."""
        record = [[*request, *read]
                  for request, read in store.unit.includes.items()]
        with open(self._object_path(key, ".deps"), "w") as f:
            json.dump(record, f)
        ObjectFileWriter(store).write(self._object_path(key))

    def _read_object(self, filename: str, key: str) -> UnitStore | None:
        """The unit cached under ``key``, grouped, or None when there is
        no usable object file and include record.  The cache directory is
        shared and persistent, so a file planted or mangled by anything
        else is discarded, not trusted forever because its name is its
        content key.

        The file's rows are flattened to a unit and grouped again, as a
        compiled unit is: a store absorbed straight from the file holds
        the same rows in another dict order, and so would link to one.
        """
        if self.cache_dir is None:
            return None
        path = self._object_path(key)
        if not os.path.exists(path):
            return None
        try:
            with open(self._object_path(key, ".deps")) as f:
                includes = _include_record(json.load(f))
            unit = absorb_object_files([path]).to_unit(filename)
        except (ClaFormatError, OSError, ValueError, TypeError):
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        unit.includes = includes
        return UnitStore(unit)

    def _current(self, unit: UnitIR, resolved: dict) -> bool:
        """Does every file ``unit``'s preprocessing read still resolve to
        the same file and text?  ``resolved`` holds one build's answers
        per include request, so each is resolved and hashed once."""
        resolver = self.options.resolver()
        for request, read in unit.includes.items():
            now = resolved.get(request)
            if now is None:
                source = resolver.resolve(*request)
                now = resolved[request] = () if source is None else (
                    source.filename, resolver.digest(source))
            if now != read:
                return False
        return True

    def _plan(self, keys: dict[str, str]) -> tuple:
        """One pass of include checks over ``keys``: per source, in
        file-name order, the held unit it maps to (a current one, or one
        the last build that changed the held set displaced), or None when
        no held unit has its key and unchanged includes."""
        if not keys:
            raise ValueError("workspace has no sources")
        resolved: dict = {}
        stores = []
        for key in keys.values():
            store = self._held.get(key)
            if store is None:
                store = self._retained.get(key)
            if store is not None and not self._current(store.unit, resolved):
                store = None
            stores.append(store)
        return keys, stores, resolved

    def held_stores(self) -> list[UnitStore] | None:
        """The held units the current sources map to, in file-name order,
        or None when some source's unit would be compiled or read back.
        Compiles and reads nothing.  The next :meth:`unit_stores` uses
        this pass's content keys and include checks, unless a source, a
        header or an option changed in between."""
        self._planned = self._plan(self._content_keys())
        stores = self._planned[1]
        return None if any(store is None for store in stores) else stores

    def unit_stores(self, jobs: int | None = None) -> list[UnitStore]:
        """Every source's unit grouped into blocks, in file-name order.

        A held unit is used as it is: a current one, or one the last
        build that changed the held set displaced (so undoing an edit
        compiles and reads nothing).  Another is read back from its
        object file, and only the rest compile; either way a unit is
        reused only while its includes are unchanged.  A compiled or
        read-back unit is grouped once, here.  A failing unit does not
        abort the batch: every other pending unit still compiles, is held
        and written, then one
        :class:`~repro.engine.pipeline.BuildError` reports all failures
        together.
        """
        self.stats = WorkspaceStats()
        keys = self._content_keys()
        plan, self._planned = self._planned, None
        if plan is None or plan[0] != keys:
            plan = self._plan(keys)
        _, planned, resolved = plan
        if list(keys.values()) == self._keys and all(
                store is held for store, held in zip(planned, self._stores)):
            self.stats.reused = len(keys)
            return self._stores
        held: dict[str, UnitStore] = {}
        pending: dict[str, str] = {}
        for (filename, key), store in zip(keys.items(), planned):
            if store is None:
                store = self._read_object(filename, key)
                if store is not None and self._current(store.unit, resolved):
                    self.stats.read += 1
                else:
                    store = None
            if store is None:
                pending[filename] = key
            else:
                held[key] = store
                self.stats.reused += 1
        failure = None
        if pending:
            try:
                compiled = dict(zip(pending, self.pipeline.compile(
                    {name: self._sources[name] for name in pending},
                    jobs=jobs,
                )))
            except BuildError as exc:
                compiled, failure = exc.units, exc
            for filename, unit in compiled.items():
                key = pending[filename]
                store = UnitStore(unit)
                if self.cache_dir is not None:
                    self._write_object(key, store)
                held[key] = store
                self.stats.compiled += 1
        if failure is not None:
            self._held.update(held)
            raise failure
        if held.keys() != self._held.keys():
            self._retained = {key: store for key, store in self._held.items()
                              if key not in held}
        self._held = held
        self._keys = list(keys.values())
        self._stores = [held[key] for key in self._keys]
        self._units = [store.unit for store in self._stores]
        self._store = None
        return self._stores

    def units(self, jobs: int | None = None) -> list[UnitIR]:
        """Every source's unit, in file-name order (see
        :meth:`unit_stores`)."""
        self.unit_stores(jobs)
        return self._units

    def store(self, jobs: int | None = None) -> MemoryStore:
        """The held units linked in memory, block by block; relinked only
        when they changed.  A link that fails keeps nothing: the next
        call links afresh, and the inputs were never written into."""
        stores = self.unit_stores(jobs)
        if self._store is None:
            self._store = self.pipeline.link_units(stores)
            self._points_to.clear()
            self._database = None
            self.stats.linked = True
        return self._store

    def points_to(
        self, solver: str = "pretransitive", **solver_kwargs
    ) -> PointsToResult:
        """Run (and cache, per linked store) a points-to analysis."""
        store = self.store()
        key = solver + repr(sorted(solver_kwargs.items()))
        if key not in self._points_to:
            self._points_to[key] = self.pipeline.analyze(
                store, solver, **solver_kwargs
            )
        return self._points_to[key]

    def dependence(
        self,
        target: str,
        non_targets: list[str] | frozenset[str] = frozenset(),
        solver: str = "pretransitive",
        min_strength: Strength = Strength.WEAK,
    ) -> DependenceResult:
        """Forward dependence query by source-level target name."""
        return self.pipeline.depend(
            self.store(), self.points_to(solver), target, non_targets,
            min_strength=min_strength,
        )

    def build(self, jobs: int | None = None) -> str:
        """Compile and link what changed; returns the path of the
        executable database, written only when the link changed since
        the last build.  It lives in ``cache_dir``, or without one in a
        temporary directory the workspace owns."""
        store = self.store(jobs)
        if self._database is None or not os.path.exists(self._database):
            directory = self.cache_dir
            if directory is None:
                if self._tempdir is None:
                    self._tempdir = tempfile.TemporaryDirectory(
                        prefix="cla-ws-")
                directory = self._tempdir.name
            self._database = self.pipeline.write_executable(
                store, os.path.join(directory, "workspace.cla"))
        return self._database

    def close(self) -> None:
        if self._tempdir is not None:
            self._tempdir.cleanup()
            self._tempdir = None

    def __enter__(self) -> "Workspace":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
