"""Incremental compile–link–analyze workspace.

The architecture's raison d'etre (§4): "if we are to build interactive
tools based on an analysis, then it is important to avoid
re-parsing/reprocessing the entire code base when changes are made to one
or two files."  CLA makes the compile phase per-file and the link phase a
cheap database merge, so an edit costs one recompile plus a relink.

:class:`Workspace` implements that loop: object files are cached on disk
keyed by a content hash of the source (plus everything it can ``#include``
and the compile options), so ``update`` followed by ``analyze`` recompiles
exactly the changed files.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from dataclasses import dataclass

from ..cla.objfile import ClaFormatError
from ..cla.reader import ObjectFileReader
from ..engine.pipeline import CompileOptions, Pipeline, resolve_jobs
from ..solvers.base import PointsToResult


@dataclass
class WorkspaceStats:
    """What the last build actually did."""

    compiled: int = 0  # files (re)compiled this build
    reused: int = 0  # object files served from cache
    linked: bool = False
    builds: int = 0


@dataclass
class _SourceEntry:
    text: str
    object_path: str | None = None
    content_key: str | None = None


class Workspace:
    """A persistent multi-file project with cached object files."""

    def __init__(
        self,
        cache_dir: str | None = None,
        options: CompileOptions | None = None,
    ):
        self.pipeline = Pipeline(options=options)
        self.options = self.pipeline.options
        if cache_dir is None:
            self._tempdir = tempfile.TemporaryDirectory(prefix="cla-ws-")
            cache_dir = self._tempdir.name
        else:
            self._tempdir = None
            os.makedirs(cache_dir, exist_ok=True)
        self.cache_dir = cache_dir
        self._sources: dict[str, _SourceEntry] = {}
        self._headers: dict[str, str] = {}
        self._executable: str | None = None
        self._executable_stale = True
        self.stats = WorkspaceStats()

    # -- source management -----------------------------------------------------

    def add_source(self, filename: str, text: str) -> "Workspace":
        self._sources[filename] = _SourceEntry(text=text)
        self.options.virtual_files[filename] = text
        self._executable_stale = True
        return self

    def add_header(self, filename: str, text: str) -> "Workspace":
        self._headers[filename] = text
        self.options.virtual_files[filename] = text
        # A header edit can affect every source file; the per-file content
        # key hashes header content, so stale entries re-key themselves.
        self._executable_stale = True
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
        self._sources.pop(filename, None)
        self.options.virtual_files.pop(filename, None)
        self._executable_stale = True
        return self

    def sources(self) -> list[str]:
        return sorted(self._sources)

    # -- building ---------------------------------------------------------------

    def _content_key(self, filename: str, entry: _SourceEntry) -> str:
        h = hashlib.sha256()
        h.update(entry.text.encode())
        # Headers are hashed wholesale: cheaper than tracking the real
        # include graph and still correct (any header edit re-keys all).
        for name in sorted(self._headers):
            h.update(name.encode())
            h.update(self._headers[name].encode())
        h.update(repr((
            self.options.field_based, self.options.struct_model,
            self.options.heap_model,
            self.options.track_strings, self.options.tolerant,
            sorted(self.options.predefined.items()),
        )).encode())
        h.update(filename.encode())
        return h.hexdigest()[:24]

    @staticmethod
    def _usable_object(path: str) -> bool:
        """Is the cached object at ``path`` present and structurally valid?

        Atomic writes (:meth:`~repro.cla.writer.ObjectFileWriter.write`)
        keep *this* workspace from producing truncated objects, but the
        cache directory is shared and persistent — a file planted or
        mangled by anything else would otherwise be reused forever, since
        its name *is* its content key.  Opening the reader validates
        size, magic, version and section bounds without parsing content.
        """
        try:
            ObjectFileReader(path).close()
        except (ClaFormatError, OSError):
            return False
        return True

    def _discard_object(self, path: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass

    def build(self, jobs: int | None = None) -> str:
        """Compile what changed, relink if anything did; returns the
        executable database path.

        ``jobs`` defaults to every core (``os.cpu_count()``); values above
        one compile the outdated files in parallel worker processes —
        sound because CLA object files are per-file and independent.

        A failing unit does not abort the batch: every other pending unit
        still compiles (and commits its cache entry), then one
        :class:`~repro.engine.pipeline.BuildError` reports all failures
        together.
        """
        self.stats = WorkspaceStats(builds=self.stats.builds + 1)
        changed = False
        object_paths: list[str] = []
        pending: dict[str, tuple[_SourceEntry, str, str]] = {}
        for filename in sorted(self._sources):
            entry = self._sources[filename]
            key = self._content_key(filename, entry)
            object_path = os.path.join(self.cache_dir, f"{key}.o")
            if entry.content_key == key and entry.object_path \
                    and os.path.exists(entry.object_path):
                self.stats.reused += 1
            elif self._usable_object(object_path):
                # Another build of identical content (e.g. an undone edit).
                entry.content_key = key
                entry.object_path = object_path
                self.stats.reused += 1
                changed = True
            else:
                # Never compiled — or a corrupt/truncated file squats at
                # the content-keyed path and must not be reused.
                if os.path.exists(object_path):
                    self._discard_object(object_path)
                pending[filename] = (entry, key, object_path)
                changed = True
            object_paths.append(object_path)
        if pending:
            try:
                self.pipeline.compile(
                    {name: entry.text for name, (entry, _k, _p)
                     in pending.items()},
                    {name: path for name, (_e, _k, path) in pending.items()},
                    jobs=resolve_jobs(jobs),
                )
            finally:
                # Every unit that wrote its object file keeps its cache
                # entry, even when others in the batch failed.
                for entry, key, path in pending.values():
                    if os.path.exists(path):
                        entry.content_key = key
                        entry.object_path = path
                        self.stats.compiled += 1
        if not object_paths:
            raise ValueError("workspace has no sources")
        executable = os.path.join(self.cache_dir, "workspace.cla")
        if changed or self._executable_stale or self._executable is None \
                or not os.path.exists(executable):
            self.pipeline.link_objects(object_paths, executable)
            self.stats.linked = True
        self._executable = executable
        self._executable_stale = False
        return executable

    def analyze(self, solver: str = "pretransitive",
                **solver_kwargs) -> PointsToResult:
        path = self.build()
        return self.pipeline.analyze_database(path, solver, **solver_kwargs)

    def close(self) -> None:
        if self._tempdir is not None:
            self._tempdir.cleanup()

    def __enter__(self) -> "Workspace":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
