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
(:class:`~repro.cla.store.MemoryStore`) and solves that store.  With a
``cache_dir`` every compiled unit also goes to an object file named by its
key, the persistent cache: a unit the workspace no longer holds (an
undone edit, a restarted daemon) is read back from it, not recompiled.
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
from ..cla.store import MemoryStore
from ..cla.writer import write_unit
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
        #: content key -> unit, for the current sources (plus the units a
        #: failed build compiled, until the next good one)
        self._held: dict[str, UnitIR] = {}
        #: the content keys, file-name order, of the last good build
        self._keys: list[str] = []
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
        self._sources[filename] = text
        self.options.virtual_files[filename] = text
        return self

    def add_file(self, path: str) -> "Workspace":
        return self.add_source(path, read_source(path))

    def add_header(self, filename: str, text: str) -> "Workspace":
        """A header visible to ``#include`` but not compiled on its own."""
        if filename in self._sources:
            raise ValueError(f"{filename!r} is already a source")
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
        return self

    def sources(self) -> list[str]:
        return sorted(self._sources)

    # -- building ---------------------------------------------------------------

    def _content_keys(self) -> dict[str, str]:
        """Every source's content key, in file-name order.  Headers are
        hashed wholesale, once per build: cheaper than tracking the real
        include graph and still correct (any header edit re-keys all)."""
        shared = hashlib.sha256()
        for name in sorted(self._headers):
            shared.update(f"{name}\0{self._headers[name]}\0".encode())
        options = self.options
        shared.update(repr((
            options.field_based, options.struct_model, options.heap_model,
            options.track_strings, options.tolerant,
            sorted(options.predefined.items()), options.include_dirs,
        )).encode())
        keys = {}
        for filename in sorted(self._sources):
            h = shared.copy()
            h.update(f"\0{filename}\0{self._sources[filename]}".encode())
            keys[filename] = h.hexdigest()[:24]
        return keys

    def _object_path(self, key: str, suffix: str = ".o") -> str:
        return os.path.join(self.cache_dir, key + suffix)

    def _write_object(self, key: str, unit: UnitIR) -> None:
        """Cache ``unit`` under ``key``: its include record first, so an
        object file never exists without the record that vouches for
        it."""
        record = [[*request, *read] for request, read in unit.includes.items()]
        with open(self._object_path(key, ".deps"), "w") as f:
            json.dump(record, f)
        write_unit(unit, self._object_path(key))

    def _read_object(self, filename: str, key: str) -> UnitIR | None:
        """The unit cached under ``key``, or None when there is no usable
        object file and include record.  The cache directory is shared
        and persistent, so a file planted or mangled by anything else is
        discarded, not trusted forever because its name is its content
        key."""
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
        return unit

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

    def units(self, jobs: int | None = None) -> list[UnitIR]:
        """Every source's unit, in file-name order.

        A held unit is used as it is, another is read back from its
        object file, and only the rest compile; either way a unit is
        reused only while its includes are unchanged.  A failing unit
        does not abort the batch: every other pending unit still
        compiles, is held and written, then one
        :class:`~repro.engine.pipeline.BuildError` reports all failures
        together.
        """
        self.stats = WorkspaceStats()
        keys = self._content_keys()
        if not keys:
            raise ValueError("workspace has no sources")
        resolved: dict = {}
        if list(keys.values()) == self._keys and all(
                self._current(unit, resolved) for unit in self._units):
            self.stats.reused = len(keys)
            return self._units
        held: dict[str, UnitIR] = {}
        pending: dict[str, str] = {}
        for filename, key in keys.items():
            unit = self._held.get(key)
            if unit is None or not self._current(unit, resolved):
                unit = self._read_object(filename, key)
                if unit is not None and self._current(unit, resolved):
                    self.stats.read += 1
                else:
                    unit = None
            if unit is None:
                pending[filename] = key
            else:
                held[key] = unit
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
                if self.cache_dir is not None:
                    self._write_object(key, unit)
                held[key] = unit
                self.stats.compiled += 1
        if failure is not None:
            self._held.update(held)
            raise failure
        self._held = held
        self._keys = list(keys.values())
        self._units = [held[key] for key in self._keys]
        self._store = None
        return self._units

    def store(self, jobs: int | None = None) -> MemoryStore:
        """The held units linked in memory; relinked only when they
        changed.  A link that fails keeps nothing: the next call links
        afresh, and the inputs were never written into."""
        units = self.units(jobs)
        if self._store is None:
            self._store = self.pipeline.link_units(units)
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
