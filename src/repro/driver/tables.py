"""Regeneration of every table and figure in the paper (§6).

Each ``tableN_rows`` function returns ``(headers, rows)`` for one paper
table, computed over the synthetic benchmark suite (see
:mod:`repro.synth.profiles` for the substitution argument); ``render``
formats them like the paper.  The pytest-benchmark files under
``benchmarks/`` and the ``repro-cla bench`` CLI subcommand are thin
wrappers over this module.

Scale note: the paper's benchmarks run to 300K+ primitive assignments; the
default ``scale`` here shrinks each profile so a full table regenerates in
seconds.  Pass ``scale=1.0`` for paper-sized runs.
"""

from __future__ import annotations

import os
import tempfile

from ..cfront.preprocessor import Preprocessor
from ..cfront.source import SourceFile
from ..cla.cache import BlockCache
from ..cla.reader import DatabaseStore
from ..engine.obs import format_table, human_count, measure
from ..engine.pipeline import CompileOptions, Pipeline
from ..ir import assignment_mix
from ..solvers import SOLVERS
from ..synth import BENCHMARK_ORDER, generate
from ..synth.generator import HEADER_NAME, SynthProgram

#: Paper Table 3 reference values: (pointer vars, relations, user time s,
#: size MB, in core, loaded, in file) — used by the benches to print
#: paper-vs-measured side by side.
PAPER_TABLE3 = {
    "nethack": (1018, 7_000, 0.01, 5.2, 114, 5933, 10402),
    "burlap": (3332, 201_000, 0.03, 5.4, 3201, 12907, 19022),
    "vortex": (4359, 392_000, 0.11, 5.7, 1792, 15411, 34126),
    "emacs": (8246, 11_232_000, 0.51, 6.0, 1560, 28445, 36603),
    "povray": (6126, 141_000, 0.09, 5.7, 5886, 27566, 40280),
    "gcc": (11289, 123_000, 0.17, 6.0, 2732, 53805, 69715),
    "gimp": (45091, 15_298_000, 1.00, 12.1, 8377, 144534, 344156),
    "lucent": (22360, 3_865_000, 0.38, 8.8, 4281, 101856, 349045),
}

#: Paper Table 4: field-based (pointers, relations, utime) vs
#: field-independent (pointers, relations, utime).
PAPER_TABLE4 = {
    "nethack": ((1018, 7_000, 0.01), (1714, 97_000, 0.03)),
    "burlap": ((3332, 201_000, 0.03), (2903, 323_000, 0.21)),
    "vortex": ((4359, 392_000, 0.11), (4655, 164_000, 0.09)),
    "emacs": ((8246, 11_232_000, 0.51), (8314, 14_643_000, 1.05)),
    "povray": ((6126, 141_000, 0.09), (5759, 1_375_000, 0.39)),
    "gcc": ((11289, 123_000, 0.17), (10984, 408_000, 0.65)),
    "gimp": ((45091, 15_298_000, 1.00), (39888, 79_603_000, 30.12)),
    "lucent": ((22360, 3_865_000, 0.46), (26085, 19_665_000, 137.20)),
}

#: Default benchmark scale per profile: big enough to show the shapes,
#: small enough that the whole suite runs in about a minute.
DEFAULT_SCALES = {
    "nethack": 0.5, "burlap": 0.3, "vortex": 0.2, "emacs": 0.15,
    "povray": 0.15, "gcc": 0.1, "gimp": 0.03, "lucent": 0.03,
}


def _profile_scale(name: str, scale: float | None) -> float:
    if scale is not None:
        return scale
    return DEFAULT_SCALES.get(name, 0.1)


def render(title: str, headers: list[str], rows: list[list[str]]) -> str:
    return format_table(headers, rows, title=title)


def render_markdown(
    title: str, headers: list[str], rows: list[list[str]]
) -> str:
    """The same table as a GitHub-flavoured markdown section (used by
    ``repro-cla report --format markdown``)."""
    lines = []
    if title:
        lines.append(f"### {title}")
        lines.append("")
    escape = lambda cell: str(cell).replace("|", "\\|")  # noqa: E731
    lines.append("| " + " | ".join(escape(h) for h in headers) + " |")
    lines.append("|" + "|".join(" --- " for _ in headers) + "|")
    for row in rows:
        lines.append("| " + " | ".join(escape(c) for c in row) + " |")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Table 1: operation strength classification
# ---------------------------------------------------------------------------


def table1_rows() -> tuple[list[str], list[list[str]]]:
    from ..ir.strength import table1_rows as rows

    headers = ["Operations", "Argument 1", "Argument 2"]
    return headers, [list(r) for r in rows()]


# ---------------------------------------------------------------------------
# Table 2: benchmark characteristics
# ---------------------------------------------------------------------------


def preprocessed_size(program: SynthProgram) -> int:
    """Size in bytes of the preprocessed token stream (Table 2 col 3)."""
    total = 0
    for name, text in program.files.items():
        pp = Preprocessor()
        pp.resolver.virtual_files[HEADER_NAME] = program.header
        tokens = pp.preprocess(SourceFile(name, text))
        total += sum(len(t.value) + 1 for t in tokens)
    return total


def build_database(
    program: SynthProgram, directory: str, field_based: bool = True
) -> str:
    """Compile each file to an object file, link, return the database path.

    This is the real pipeline — object files on disk, mmap reads — not the
    in-memory shortcut, so Table 2/3 measurements include the CLA layer.
    """
    options = CompileOptions(field_based=field_based)
    options.virtual_files[HEADER_NAME] = program.header
    pipeline = Pipeline(options)
    sources = dict(sorted(program.files.items()))
    objects = {name: os.path.join(directory, name + ".o") for name in sources}
    pipeline.compile(sources, objects)
    out = os.path.join(directory, "program.cla")
    pipeline.link_objects(list(objects.values()), out)
    return out


def table2_rows(
    scale: float | None = None,
    seed: int = 42,
    profiles: list[str] | None = None,
) -> tuple[list[str], list[list[str]]]:
    headers = [
        "", "LOC(source)", "LOC(paper)", "preproc", "object",
        "variables", "x=y", "x=&y", "*x=y", "*x=*y", "x=*y",
    ]
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in profiles or BENCHMARK_ORDER:
            s = _profile_scale(name, scale)
            program = generate(name, scale=s, seed=seed)
            db_path = build_database(program, tmp)
            store = DatabaseStore.open(db_path)
            mix = {"x = y": 0, "x = &y": 0, "*x = y": 0, "*x = *y": 0,
                   "x = *y": 0}
            assignments = store.fetch_statics()
            for block_name in store.block_names():
                assignments.extend(store.fetch_block(block_name).assignments)
            mix.update(assignment_mix(assignments))
            n_vars = sum(
                1 for obj_name in store.object_names()
                if not obj_name.split("::")[-1].startswith("$")
            )
            rows.append([
                f"{name}@{s:g}",
                str(program.source_lines()),
                program.profile.paper_loc,
                f"{preprocessed_size(program) / 1e6:.1f}MB",
                f"{os.path.getsize(db_path) / 1e6:.1f}MB",
                str(n_vars),
                str(mix["x = y"]), str(mix["x = &y"]), str(mix["*x = y"]),
                str(mix["*x = *y"]), str(mix["x = *y"]),
            ])
            store.close()
    return headers, rows


# ---------------------------------------------------------------------------
# Table 3: analysis results
# ---------------------------------------------------------------------------


def table3_rows(
    scale: float | None = None,
    seed: int = 42,
    solver: str = "pretransitive",
    profiles: list[str] | None = None,
    max_core_assignments: int | None = None,
) -> tuple[list[str], list[list[str]]]:
    headers = [
        "", "pointer", "points-to", "real", "user", "space",
        "in core", "loaded", "in file", "peak core", "reloads",
        "paper:ptr", "paper:rel", "paper:utime",
    ]
    rows = []
    pipeline = Pipeline()
    with tempfile.TemporaryDirectory() as tmp:
        for name in profiles or BENCHMARK_ORDER:
            s = _profile_scale(name, scale)
            program = generate(name, scale=s, seed=seed)
            db_path = build_database(program, tmp)
            store = pipeline.open_database(db_path, max_core_assignments)
            m = measure(lambda: pipeline.analyze(store, solver))
            result = m.result
            paper = PAPER_TABLE3[name]
            # The load-accounting columns come from the uniform stats
            # record, not the store, so every solver reports them the
            # same way.
            in_core, loaded, in_file = result.stats.table3_columns()
            rows.append([
                f"{name}@{s:g}",
                str(result.pointer_variables()),
                human_count(result.points_to_relations()),
                f"{m.real_seconds:.2f}s",
                f"{m.user_seconds:.2f}s",
                f"{m.peak_rss_mb:.0f}MB",
                str(in_core),
                str(loaded),
                str(in_file),
                str(result.stats.peak_in_core),
                str(result.stats.assignments_reloaded),
                str(paper[0]), human_count(paper[1]), f"{paper[2]:.2f}s",
            ])
            store.close()
    return headers, rows


# ---------------------------------------------------------------------------
# Table 4: field-based vs field-independent
# ---------------------------------------------------------------------------


def table4_rows(
    scale: float | None = None,
    seed: int = 42,
    profiles: list[str] | None = None,
) -> tuple[list[str], list[list[str]]]:
    headers = [
        "", "FB:ptr", "FB:rel", "FB:utime", "FI:ptr", "FI:rel", "FI:utime",
        "rel ratio", "paper ratio",
    ]
    rows = []
    for name in profiles or BENCHMARK_ORDER:
        s = _profile_scale(name, scale)
        program = generate(name, scale=s, seed=seed)
        cells = [f"{name}@{s:g}"]
        relations = {}
        for field_based in (True, False):
            project = program.project(field_based=field_based)
            project.units()  # compile outside the timed region
            m = measure(lambda: project.points_to())
            result = m.result
            relations[field_based] = result.points_to_relations()
            cells.extend([
                str(result.pointer_variables()),
                human_count(result.points_to_relations()),
                f"{m.user_seconds:.2f}s",
            ])
        ratio = relations[False] / max(relations[True], 1)
        paper_fb, paper_fi = PAPER_TABLE4[name]
        paper_ratio = paper_fi[1] / paper_fb[1]
        cells.append(f"{ratio:.2f}")
        cells.append(f"{paper_ratio:.2f}")
        rows.append(cells)
    return headers, rows


# ---------------------------------------------------------------------------
# §5 ablation: caching, cycle elimination & difference propagation
# ---------------------------------------------------------------------------


def ablation_rows(
    size: int = 500,
    **_ignored,
) -> tuple[list[str], list[list[str]]]:
    """The ">50,000x" experiment (§5) plus the difference-propagation
    ablation.

    Two kernels isolate the three optimizations:

    * the getLvals *blowup* kernel shows caching + cycle elimination (the
      paper's pair): wall time plus the deterministic traversal-work
      counter (node expansions), whose growth extrapolates to the paper's
      figure;
    * the deref *ladder* kernel shows difference propagation: without it
      every round re-walks every already-processed lval of every complex
      assignment — the ``lvals processed`` column collapses from O(n^2)
      to O(n) when the delta discipline is on.  (The ladder preloads:
      demand loading would re-discover the rungs in benign dependency
      order and hide the re-walk.)

    Slowdown / work factors are relative to the all-on row of the same
    kernel.

    The last two rows exercise the §4 keep-or-discard *block cache* on
    the ladder kernel: after solving, every block is requested once more
    (a depend-style second pass).  With an unbounded cache the second
    pass is all hits; with budget 0 nothing is retained, so every
    re-request is a re-read — the ``reloads`` column is the price of the
    memory bound.
    """
    from ..synth.kernels import ablation_kernel, diff_propagation_kernel

    headers = ["kernel", "cache", "cycle elim", "diff", "user time",
               "slowdown", "traversal work", "work factor",
               "lvals processed", "lvals skipped",
               "block cache", "reloads"]
    #: (kernel, cache, cycles, diff, demand, block_budget) where
    #: block_budget is "off" (no BlockCache), "unbounded", or an int.
    configs = [
        ("blowup", True, True, True, True, "off"),
        ("blowup", True, False, True, True, "off"),
        ("blowup", False, True, True, True, "off"),
        ("blowup", False, False, True, True, "off"),
        ("ladder", True, True, True, False, "off"),
        ("ladder", True, True, False, False, "off"),
        ("ladder+reuse", True, True, True, False, "unbounded"),
        ("ladder+reuse", True, True, True, False, 0),
    ]
    rows = []
    baselines: dict[str, tuple[float, int]] = {}
    pipeline = Pipeline()
    for kernel, cache, cycles, diff, demand, block_budget in configs:
        if kernel.startswith("blowup"):
            store = ablation_kernel(size)
        else:
            store = diff_propagation_kernel(size)
        if block_budget != "off":
            budget = None if block_budget == "unbounded" else block_budget
            store = BlockCache(store, budget)
        m = measure(lambda: pipeline.analyze(
            store, "pretransitive",
            enable_cache=cache,
            enable_cycle_elimination=cycles,
            enable_diff_propagation=diff,
            demand_load=demand,
        ))
        stats = m.result.stats
        if block_budget != "off":
            # Depend-style reuse pass: re-request every block once.
            for name in list(store.block_names()):
                store.load_block(name)
            stats.absorb_load_stats(store.stats)
        work = stats.nodes_visited
        baseline_key = kernel.split("+")[0]
        if baseline_key not in baselines:
            baselines[baseline_key] = (
                max(m.user_seconds, 1e-6), max(work, 1)
            )
        baseline_time, baseline_work = baselines[baseline_key]
        rows.append([
            kernel,
            "on" if cache else "off",
            "on" if cycles else "off",
            "on" if diff else "off",
            f"{m.user_seconds:.3f}s",
            f"{m.user_seconds / baseline_time:.0f}x",
            str(work),
            f"{work / baseline_work:.0f}x",
            str(stats.delta_lvals_processed),
            str(stats.lvals_skipped_by_diff),
            str(block_budget),
            str(stats.assignments_reloaded),
        ])
    return headers, rows


# ---------------------------------------------------------------------------
# Solver comparison (the §6 related-systems discussion)
# ---------------------------------------------------------------------------


def solver_rows(
    scale: float | None = None,
    seed: int = 42,
    profiles: list[str] | None = None,
    solvers: list[str] | None = None,
) -> tuple[list[str], list[list[str]]]:
    solver_names = solvers or list(SOLVERS)
    headers = ["", *[f"{s}:utime" for s in solver_names],
               *[f"{s}:rel" for s in solver_names]]
    rows = []
    for name in profiles or ["nethack", "vortex", "gcc", "emacs"]:
        s = _profile_scale(name, scale)
        program = generate(name, scale=s, seed=seed)
        times, rels = [], []
        for solver in solver_names:
            project = program.project()
            project.units()
            m = measure(lambda: project.points_to(solver))
            times.append(f"{m.user_seconds:.2f}s")
            rels.append(human_count(m.result.points_to_relations()))
        rows.append([f"{name}@{s:g}", *times, *rels])
    return headers, rows


def demand_rows(
    scale: float | None = None,
    seed: int = 42,
    profiles: list[str] | None = None,
    max_core_assignments: int | None = None,
) -> tuple[list[str], list[list[str]]]:
    headers = ["", "mode", "in core", "loaded", "in file", "user time",
               "peak core", "reloads"]
    rows = []
    pipeline = Pipeline()
    with tempfile.TemporaryDirectory() as tmp:
        for name in profiles or ["nethack", "gcc", "gimp"]:
            s = _profile_scale(name, scale)
            program = generate(name, scale=s, seed=seed)
            db_path = build_database(program, tmp)
            for demand in (True, False):
                store = pipeline.open_database(db_path, max_core_assignments)
                m = measure(lambda: pipeline.analyze(
                    store, "pretransitive", demand_load=demand))
                in_core, loaded, in_file = m.result.stats.table3_columns()
                rows.append([
                    f"{name}@{s:g}",
                    "demand" if demand else "full",
                    str(in_core),
                    str(loaded),
                    str(in_file),
                    f"{m.user_seconds:.2f}s",
                    str(m.result.stats.peak_in_core),
                    str(m.result.stats.assignments_reloaded),
                ])
                store.close()
    return headers, rows


# ---------------------------------------------------------------------------
# Keep-or-discard block cache: the §4 memory-budget sweep
# ---------------------------------------------------------------------------


def default_budget_sweep(statics: int, in_file: int) -> list[int | None]:
    """Budget ladder for :func:`cache_rows`: unbounded, everything-fits,
    a tight middle, and statics-only (retain no blocks at all).  All
    budgets are >= the static section, which is a mandatory resident, so
    ``peak_in_core <= budget`` holds for every bounded row."""
    tight = statics + max(1, (in_file - statics) // 8)
    return [None, in_file, tight, statics]


def cache_rows(
    scale: float | None = None,
    seed: int = 42,
    profiles: list[str] | None = None,
    solver: str = "pretransitive",
    budgets: list[int | None] | None = None,
) -> tuple[list[str], list[list[str]]]:
    """Solve + a depend-style reuse pass under a ladder of memory budgets.

    The reuse pass re-requests every block once after the solve (what the
    dependence analysis does when it walks loads).  An unbounded cache
    answers the second pass from core; bounded budgets trade residency
    for re-reads, and the ``reloads`` column is exactly that price.
    """
    headers = ["", "budget", "peak core", "in core", "loaded", "in file",
               "reloads", "hits", "misses", "evictions", "user time"]
    rows = []
    pipeline = Pipeline()
    with tempfile.TemporaryDirectory() as tmp:
        for name in profiles or ["lucent"]:
            s = _profile_scale(name, scale)
            program = generate(name, scale=s, seed=seed)
            db_path = build_database(program, tmp)
            with DatabaseStore.open(db_path) as probe:
                statics = len(probe.fetch_statics())
                in_file = probe.stats.in_file
            sweep = (
                budgets if budgets is not None
                else default_budget_sweep(statics, in_file)
            )
            for budget in sweep:
                with BlockCache(DatabaseStore.open(db_path),
                                budget) as cache:
                    m = measure(lambda: pipeline.analyze(cache, solver))
                    # Depend-style reuse: re-request every block once.
                    for block_name in list(cache.block_names()):
                        cache.load_block(block_name)
                    st = cache.stats
                    rows.append([
                        f"{name}@{s:g}",
                        "unbounded" if budget is None else str(budget),
                        str(st.peak_in_core),
                        str(st.in_core),
                        str(st.loaded),
                        str(st.in_file),
                        str(st.reloads),
                        str(st.block_hits),
                        str(st.block_misses),
                        str(st.block_evictions),
                        f"{m.user_seconds:.2f}s",
                    ])
    return headers, rows
