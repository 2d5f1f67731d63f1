"""High-level pipeline API: compile → link → analyze in one place.

This is the public face of the library.  Typical use::

    from repro.driver import Workspace

    project = Workspace()
    project.add_source("a.c", "int x, *p; void f(void){ p = &x; }")
    result = project.points_to()
    result.points_to("p")          # frozenset({'x'})

or, going through real object files on disk::

    from repro.driver import api

    api.compile_to_object("a.c", "a.o")
    api.compile_to_object("b.c", "b.o")
    api.link_objects(["a.o", "b.o"], "prog.cla")
    result = api.analyze_database("prog.cla")

Everything here is a thin wrapper over :mod:`repro.engine.pipeline`
(and :class:`~repro.driver.incremental.Workspace` for projects);
attach a :class:`~repro.engine.obs.Tracer` to the event bus
(``with EVENTS.sink(Tracer()) as tracer: ...``) to see the per-stage
spans.
"""

from __future__ import annotations

import os

from ..cla.store import ConstraintStore
from ..engine.pipeline import (
    CompileOptions,
    Pipeline,
    compile_file,
    compile_source,
    read_source,
)
from ..solvers.base import PointsToResult
from .incremental import Workspace

__all__ = [
    "CompileOptions",
    "Workspace",
    "analyze_database",
    "analyze_store",
    "build_project_from_dir",
    "compile_file",
    "compile_source",
    "compile_to_object",
    "link_objects",
]


def compile_to_object(
    path: str, out_path: str, options: CompileOptions | None = None
) -> None:
    """The compile phase proper: source file -> CLA object file."""
    Pipeline(options).compile_to_object(path, out_path)


def link_objects(object_paths: list[str], out_path: str) -> None:
    """The link phase: object files -> executable database."""
    Pipeline().link_objects(list(object_paths), out_path)


def analyze_store(
    store: ConstraintStore, solver: str = "pretransitive", **solver_kwargs
) -> PointsToResult:
    """The analyze phase on any store."""
    return Pipeline().analyze(store, solver, **solver_kwargs)


def analyze_database(
    path: str, solver: str = "pretransitive", **solver_kwargs
) -> PointsToResult:
    """Open a linked database and run a points-to analysis on it."""
    return Pipeline().analyze_database(path, solver, **solver_kwargs)


def build_project_from_dir(
    directory: str, options: CompileOptions | None = None
) -> Workspace:
    """A workspace of every ``.c`` file under ``directory`` (recursively);
    ``.h`` files become visible headers."""
    project = Workspace(options=options)
    project.options.include_dirs.append(directory)
    for root, _dirs, files in os.walk(directory):
        for name in sorted(files):
            path = os.path.join(root, name)
            if name.endswith(".c"):
                project.add_file(path)
            elif name.endswith(".h"):
                project.add_header(path, read_source(path))
    return project
