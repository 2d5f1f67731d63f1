"""The pipeline engine: compile → link → analyze → depend as named stages.

The paper's CLA architecture (§4) *is* a pipeline — compile, link and
analyze are separable phases with measurable per-phase costs (Tables 2-3
report per-phase sizes, load accounting and solver times).  This module is
the one instrumented spine all entry points go through:

* :class:`Pipeline` — the stage engine.  Each stage method runs under a
  named :func:`~repro.engine.obs.span` ("compile", "link", "write",
  "analyze", "depend"), annotates the span with its key counters, and
  feeds the process-wide :class:`~repro.engine.obs.MetricsRegistry`.
* :class:`repro.driver.incremental.Workspace` — the stateful multi-file
  project on top: sources in, held units, a linked store and solved
  results out, every build through the stage methods here.

Each stage has one entry point here.  Every build compiles through
:meth:`Pipeline.compile`, the one driver, which also owns parallel
compilation (§4: the architecture "supports separate and/or parallel
compilation of collections of source files"): workers share nothing and
only the cheap link phase is serial.  Only the streamed synth tier
(:mod:`repro.synth.stream`) calls :func:`compile_source` itself, linking
one unit at a time to bound memory.  Every solve runs through
:meth:`Pipeline.analyze` (the CLI, the workspace, the serve daemon, the
paper tables and the fuzzer), so each one is an ``analyze`` span.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from ..cfront import IncludeResolver, parse_c
from ..cla.cache import BlockCache
from ..cla.linker import link_object_files
from ..cla.reader import DatabaseStore
from ..cla.store import ConstraintStore, MemoryStore, UnitStore
from ..cla.writer import ObjectFileWriter, write_unit
from ..depend.analysis import DependenceAnalysis, DependenceResult
from ..ir.lower import UnitIR, lower_translation_unit
from ..ir.strength import Strength
from ..solvers import SOLVERS
from ..solvers.base import PointsToResult
from .collector import collector_paused
from .events import EVENTS, UnitCompiledEvent
from .obs import span


@dataclass
class CompileOptions:
    """Options shared by every compile-phase entry point."""

    field_based: bool = True
    #: "field_based" | "field_independent" | "offset_based"; overrides
    #: ``field_based`` when set.
    struct_model: str | None = None
    #: "site" (fresh location per allocation call, §6 setup (a)) |
    #: "function" (one heap object per allocating function) | "single".
    heap_model: str = "site"
    track_strings: bool = False
    #: Recover from unparseable declarations instead of failing the unit.
    tolerant: bool = False
    include_dirs: list[str] = field(default_factory=list)
    virtual_files: dict[str, str] = field(default_factory=dict)
    predefined: dict[str, str] = field(default_factory=dict)

    def resolver(self) -> IncludeResolver:
        """One shared resolver per options object.

        Sharing matters: the resolver carries the include token cache, so
        a multi-file project tokenizes each header once instead of once
        per including unit.
        """
        cached = getattr(self, "_resolver", None)
        if cached is None:
            cached = IncludeResolver(
                include_dirs=self.include_dirs,
                virtual_files=self.virtual_files,
            )
            object.__setattr__(self, "_resolver", cached)
        else:
            # Late-added sources/headers must stay visible.
            cached.include_dirs = self.include_dirs
            cached.virtual_files = self.virtual_files
        return cached

    def __getstate__(self):
        # The memoized resolver holds token caches that are pointless to
        # ship to parallel-build workers; drop it from pickles and copies.
        state = dict(self.__dict__)
        state.pop("_resolver", None)
        return state


def resolve_jobs(jobs: int | None) -> int:
    """``None`` means "use every core"; anything else is clamped to >= 1."""
    if jobs is None:
        jobs = os.cpu_count() or 1
    return max(1, jobs)


# ---------------------------------------------------------------------------
# Stage primitives (uninstrumented; Pipeline wraps them in spans)
# ---------------------------------------------------------------------------


@collector_paused
def compile_source(
    text: str,
    filename: str = "<string>",
    options: CompileOptions | None = None,
) -> UnitIR:
    """Compile one translation unit from source text to IR.

    Every compile route runs here, with the cycle collector paused: the
    tokens, the AST and the lowering's scratch hold no reference cycle,
    so reference counting frees them all.
    """
    options = options or CompileOptions()
    resolver = options.resolver()
    unit = parse_c(
        text,
        filename=filename,
        resolver=resolver,
        predefined=options.predefined,
        tolerant=options.tolerant,
    )
    ir = lower_translation_unit(
        unit,
        field_based=options.field_based,
        track_strings=options.track_strings,
        source_text=text,
        struct_model=options.struct_model,
        heap_model=options.heap_model,
    )
    ir.includes = {
        request: (source.filename, resolver.digest(source))
        for request, source in unit.includes.items()
    }
    return ir


def read_source(path: str) -> str:
    """A source file's text, decoding errors replaced."""
    with open(path, "r", errors="replace") as f:
        return f.read()


def _compile_job(
    filename: str,
    text: str,
    options: CompileOptions,
    object_path: str | None,
) -> tuple[UnitIR | None, int, int]:
    """Compile one unit; returns it with its assignment and object
    counts.  With ``object_path`` the unit goes to that object file
    instead, and only its counts come back.

    Module-level so :class:`ProcessPoolExecutor` can pickle it.
    """
    unit = compile_source(text, filename=filename, options=options)
    sizes = len(unit.assignments), len(unit.objects)
    if object_path is None:
        return unit, *sizes
    write_unit(unit, object_path)
    return None, *sizes


class BuildError(Exception):
    """One or more units failed to compile.

    Collects *every* failing unit, sorted by file name, after all the
    others have compiled (and written their object files), so one build
    reports all broken files at once and the good ones never redo work:
    :attr:`units` holds them by file name, as :meth:`Pipeline.compile`
    would have returned them.
    """

    def __init__(self, failures: list[tuple[str, Exception]],
                 units: dict[str, UnitIR | None] | None = None):
        self.failures = failures
        self.units = units or {}
        lines = "; ".join(
            f"{filename}: {error}" for filename, error in failures
        )
        count = len(failures)
        noun = "unit" if count == 1 else "units"
        super().__init__(f"{count} {noun} failed to compile: {lines}")


# ---------------------------------------------------------------------------
# The Pipeline engine
# ---------------------------------------------------------------------------


class Pipeline:
    """Instrumented compile→link→analyze→depend stage engine.

    Stateless apart from its options: every method takes its inputs and
    returns its outputs, so stages compose freely and callers (the
    Workspace, the CLI) share one observability spine, the spans on the
    process event bus.  ``jobs`` is the default compile parallelism;
    ``None`` means every core.
    """

    def __init__(
        self,
        options: CompileOptions | None = None,
        jobs: int | None = 1,
    ):
        self.options = options or CompileOptions()
        self.jobs = jobs

    def _jobs(self, jobs: int | None) -> int:
        return resolve_jobs(self.jobs if jobs is None else jobs)

    # -- compile stage -------------------------------------------------------

    def compile(
        self,
        sources: dict[str, str],
        object_paths: dict[str, str] | None = None,
        jobs: int | None = None,
    ) -> list[UnitIR | None]:
        """The compile driver: every build runs here (the CLI, the
        workspace, the paper tables and the fuzzer).

        Compiles ``sources`` (file name -> text) in order, writing each
        unit named in ``object_paths`` to its object file.  In process
        when ``jobs`` is 1 or only one source is pending, otherwise in one
        process pool of up to ``jobs`` workers.  Returns the units in
        ``sources`` order.  A unit written to an object file comes back as
        ``None``: the file holds it, so building many objects keeps no
        unit's IR alive.

        One ``compile`` stage covers the batch, with a ``unit`` span per
        in-process unit and a ``compile.unit`` event per compiled unit.
        A failing unit does not stop the others: once every unit has run,
        one :class:`BuildError` names each failure and carries the units
        that did compile.
        """
        jobs = self._jobs(jobs)
        object_paths = object_paths or {}
        stray = object_paths.keys() - sources.keys()
        if stray:
            raise ValueError("object paths must pair up with sources; none "
                             f"for {', '.join(sorted(stray))}")
        names = list(sources)
        total = len(names)
        units: list[UnitIR | None] = [None] * total
        sizes: list[tuple[int, int]] = []
        failures: list[tuple[str, Exception]] = []

        def done(i: int, result: tuple[UnitIR | None, int, int]) -> None:
            units[i], assignments, objects = result
            sizes.append((assignments, objects))
            if EVENTS:
                EVENTS.emit(UnitCompiledEvent(
                    file=names[i], index=len(sizes), total=total,
                    assignments=assignments, objects=objects,
                ))

        with span("compile", files=total, jobs=jobs) as stage:
            if jobs > 1 and total > 1:
                # The worker pool (and multiprocessing under it) loads
                # only when a build fans out.
                from concurrent.futures import (
                    ProcessPoolExecutor,
                    as_completed,
                )

                with ProcessPoolExecutor(
                        max_workers=min(jobs, total)) as pool:
                    futures = {
                        pool.submit(
                            _compile_job, name, sources[name], self.options,
                            object_paths.get(name),
                        ): i
                        for i, name in enumerate(names)
                    }
                    for future in as_completed(futures):
                        i = futures[future]
                        try:
                            result = future.result()
                        except Exception as exc:
                            failures.append((names[i], exc))
                        else:
                            done(i, result)
            else:
                for i, name in enumerate(names):
                    try:
                        with span("unit", file=name):
                            result = _compile_job(
                                name, sources[name], self.options,
                                object_paths.get(name),
                            )
                    except Exception as exc:
                        failures.append((name, exc))
                    else:
                        done(i, result)
            stage.annotate(assignments=sum(a for a, _ in sizes),
                           objects=sum(o for _, o in sizes))
            if failures:
                failed = {name for name, _exc in failures}
                raise BuildError(
                    sorted(failures, key=lambda f: f[0]),
                    {name: unit for name, unit in zip(names, units)
                     if name not in failed},
                )
        return units

    def compile_units(
        self, sources: dict[str, str], jobs: int | None = None
    ) -> list[UnitIR]:
        """Compile many in-memory sources to IR, in file-name order."""
        return self.compile(dict(sorted(sources.items())), jobs=jobs)

    # -- link stage ----------------------------------------------------------

    def link_units(self, units: list[UnitIR | UnitStore]) -> MemoryStore:
        """Link compiled units into an in-memory constraint store.  A
        :class:`~repro.cla.store.UnitStore` (a unit already grouped into
        blocks, as a workspace holds it) is merged block by block, a bare
        unit grouped row by row; the store is the same."""
        with span("link", units=len(units)) as stage:
            store = MemoryStore(units)
            stage.annotate(
                objects=len(store.objects),
                assignments=store.stats.in_file,
            )
        return store

    def link_objects(self, object_paths: list[str], out_path: str) -> str:
        """The link phase: object files -> executable database."""
        with span("link", objects=len(object_paths)) as stage:
            link_object_files(object_paths, out_path)
            stage.annotate(output=out_path)
        return out_path

    def write_executable(self, store: MemoryStore, out_path: str) -> str:
        """Serialize a linked store to an executable database."""
        with span("write", objects=len(store.objects)) as stage:
            ObjectFileWriter(store, linked=True).write(out_path)
            stage.annotate(output=out_path)
        return out_path

    # -- analyze stage -------------------------------------------------------

    def open_database(
        self, path: str, max_core_assignments: int | None = None
    ) -> ConstraintStore:
        """Open a database, optionally behind a keep-or-discard cache.

        With ``max_core_assignments`` set, the returned store is a
        :class:`~repro.cla.cache.BlockCache` bounding analyze-phase
        residency to that many assignments (§4's discard-and-reload
        strategy); ``None`` returns the plain :class:`DatabaseStore`.
        """
        store = DatabaseStore.open(path)
        if max_core_assignments is None:
            return store
        try:
            return BlockCache(store, max_core_assignments)
        except Exception:
            store.close()
            raise

    def analyze(
        self,
        store: ConstraintStore,
        solver: str = "pretransitive",
        **solver_kwargs,
    ) -> PointsToResult:
        """The analyze phase on any store: one sequential solve."""
        try:
            cls = SOLVERS[solver]
        except KeyError:
            known = ", ".join(sorted(SOLVERS))
            raise ValueError(
                f"unknown solver {solver!r} (known: {known})"
            ) from None
        with span("analyze", solver=solver) as stage:
            result = cls(store, **solver_kwargs).solve()
            stage.annotate(**result.stats.counter_fields())
        return result

    # -- depend stage --------------------------------------------------------

    def depend(
        self,
        store: ConstraintStore,
        points_to: PointsToResult,
        target: str,
        non_targets: frozenset[str] | list[str] = frozenset(),
        min_strength: Strength = Strength.WEAK,
    ) -> DependenceResult:
        """Forward dependence query by source-level target name.

        The first query over a points-to result builds its reverse index
        (:meth:`PointsToResult.pointed_by`); the span records whether
        this one did and how many (pointer, target) pairs it holds.
        """
        with span("depend", target=target) as stage:
            builds_index = not points_to.pointed_by_built
            targets = store.find_targets(target)
            if not targets:
                raise KeyError(f"no object named {target!r} in the project")
            result = DependenceAnalysis(store, points_to).analyze(
                targets, frozenset(non_targets), min_strength=min_strength
            )
            stage.annotate(
                dependents=len(result.dependents),
                blocks_loaded=result.blocks_loaded,
                reverse_index_built=builds_index,
                reverse_index_pairs=points_to.pointed_by_pairs,
            )
        return result
