"""The ``repro-cla`` command-line tool.

Mirrors the paper's toolchain: separate *compile* and *link* steps over
object files, an *analyze* step with pluggable solvers, the *depend*
forward-dependence tool (§2), plus ``synth`` to generate benchmark code
bases, ``dump`` to inspect a database, and ``bench`` to regenerate the
paper's tables.

Examples::

    repro-cla compile a.c -o a.o
    repro-cla compile b.c -o b.o
    repro-cla link a.o b.o -o prog.cla
    repro-cla analyze prog.cla --query p --query q
    repro-cla depend prog.cla --target x --limit 20
    repro-cla depend a.c b.c --target x
    repro-cla synth gimp --scale 0.05 -o /tmp/gimp-like
    repro-cla bench table3
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from contextlib import contextmanager

from ..cla.cache import BlockCache
from ..cla.objfile import ClaFormatError
from ..cla.reader import DatabaseStore
from ..cla.store import ConstraintStore, LinkError
from ..depend.chains import render_all, summarize
from ..engine.events import EVENTS, JsonlSink, ProgressSink
from ..engine.obs import REGISTRY, Tracer, human_count, measure, span
from ..engine.pipeline import BuildError, CompileOptions, Pipeline, read_source
from ..solvers import SOLVERS
from . import tables


@contextmanager
def _event_sinks(events_out: str | None, progress: bool,
                 trace_out: str | None = None):
    """Attach the requested sinks to the process bus for one command
    (``--events FILE``, ``--progress`` and ``--trace FILE``).  The trace
    is written on the way out, so a failed run still leaves a partial
    one."""
    jsonl = JsonlSink(events_out) if events_out else None
    tracer = Tracer() if trace_out else None
    sinks = [s for s in (
        jsonl, ProgressSink() if progress else None, tracer
    ) if s is not None]
    for sink in sinks:
        EVENTS.add_sink(sink)
    try:
        yield
    finally:
        for sink in sinks:
            EVENTS.remove_sink(sink)
        if jsonl is not None:
            jsonl.close()
        if tracer is not None:
            tracer.write(trace_out)


def _write_output(path: str, text: str, end: str = "") -> None:
    """Write ``text`` to the file ``path``, or to stdout followed by
    ``end`` when ``path`` is ``-``."""
    if path == "-":
        print(text, end=end)
    else:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)


def _source_inputs(command: str, inputs: list[str],
                   suffixes: tuple[str, ...] = (".c",)) -> list[str] | None:
    """The source files among ``inputs``: every input a source (a build
    from sources), or none and exactly one input (a database).  Any
    other mix prints an error and returns ``None``."""
    sources = [p for p in inputs if p.endswith(suffixes)]
    kinds = "/".join(suffixes)
    if sources and len(sources) != len(inputs):
        print(f"error: cannot mix {kinds} sources with a database",
              file=sys.stderr)
        return None
    if not sources and len(inputs) != 1:
        print(f"error: {command} takes one database or a set of {kinds} "
              "sources", file=sys.stderr)
        return None
    return sources


def _open_inputs(pipeline: Pipeline, inputs: list[str], sources: list[str],
                 max_core_assignments: int | None = None) -> ConstraintStore:
    """The store a command analyzes: ``sources`` (what
    :func:`_source_inputs` returned) compiled and linked in memory, or
    else the one database in ``inputs``.  With ``max_core_assignments``
    set it sits behind a keep-or-discard block cache of that budget."""
    if not sources:
        return pipeline.open_database(inputs[0], max_core_assignments)
    store = pipeline.link_units(pipeline.compile_units(
        {path: read_source(path) for path in sources}))
    if max_core_assignments is None:
        return store
    return BlockCache(store, max_core_assignments)


def _count(minimum: int = 0):
    """The argparse type of every count flag: an int of at least
    ``minimum``, so a bad value is a usage error (rc 2)."""

    def count(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}")
        return value

    return count


def _add_ledger_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--events", dest="events_out", metavar="FILE",
                   help="write the run ledger as JSONL "
                        "(schema v1; see docs/OBSERVABILITY.md)")
    p.add_argument("--progress", action="store_true",
                   help="render live progress on stderr "
                        "(phase, per-round solver deltas, cache pressure)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cla",
        description="CLA points-to & dependence analysis "
                    "(PLDI 2001 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile",
                       help="compile C files to CLA object files")
    p.add_argument("sources", nargs="+")
    p.add_argument("-o", "--output", required=True,
                   help="object file (one source) or output directory")
    p.add_argument("-j", "--jobs", type=_count(), default=1,
                   help="compile in N parallel worker processes")
    p.add_argument("-I", "--include", action="append", default=[],
                   help="add an #include search directory")
    p.add_argument("-D", "--define", action="append", default=[],
                   help="predefine a macro (NAME or NAME=VALUE)")
    model = p.add_mutually_exclusive_group()
    model.add_argument("--field-independent", action="store_true",
                       help="use the field-independent struct model")
    model.add_argument("--struct-model",
                       choices=["field_based", "field_independent",
                                "offset_based"],
                       help="struct model; offset_based is the paper's "
                            "future-work model")
    p.add_argument("--track-strings", action="store_true",
                   help="model string literals as objects")
    p.add_argument("--heap-model", default="site",
                   choices=["site", "function", "single"],
                   help="allocation-site granularity (§6 setup (a))")

    p = sub.add_parser("link", help="link object files into a database")
    p.add_argument("objects", nargs="+")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("analyze", help="run points-to analysis")
    p.add_argument("inputs", nargs="+", metavar="input",
                   help="a linked .cla database, or .c sources to "
                        "compile+link in memory first")
    p.add_argument("--solver", default="pretransitive",
                   choices=sorted(SOLVERS))
    p.add_argument("--trace", dest="trace_out", metavar="FILE",
                   help="write the stage-span trace as JSON "
                        "(.jsonl for one span per line)")
    _add_ledger_flags(p)
    p.add_argument("--profile", dest="profile_out", metavar="FILE",
                   help="cProfile the analyze phase to FILE (pstats "
                        "format) and print the top hot functions")
    p.add_argument("--stats", action="store_true",
                   help="print the uniform solver stats line")
    p.add_argument("--query", action="append", default=[],
                   help="print the points-to set of this object")
    p.add_argument("--no-demand", action="store_true",
                   help="preload the whole database (pretransitive only)")
    p.add_argument("--no-diff", action="store_true",
                   help="disable difference propagation "
                        "(pretransitive only; ablation)")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the per-round lval cache "
                        "(pretransitive only; ablation)")
    p.add_argument("--no-cycle-elim", action="store_true",
                   help="disable complete cycle elimination "
                        "(pretransitive only; ablation)")
    p.add_argument("--max-core-assignments", type=_count(), default=None,
                   metavar="N",
                   help="bound in-core assignments to N via the "
                        "keep-or-discard block cache (§4); evicted "
                        "blocks are re-read on demand "
                        "(default: unbounded, no cache)")
    p.add_argument("--top", type=_count(), default=0,
                   help="print the N largest points-to sets")
    p.add_argument("--dot", dest="dot_out", metavar="FILE",
                   help="write the points-to graph as Graphviz DOT")
    p.add_argument("--json", dest="json_out", metavar="FILE",
                   help="write the full points-to relation as JSON "
                        "('-' for stdout)")

    p = sub.add_parser("depend", help="forward dependence analysis (§2)")
    p.add_argument("inputs", nargs="+", metavar="input",
                   help="a linked .cla database, or .c sources to "
                        "compile+link in memory first")
    p.add_argument("--target", required=True,
                   help="source-level name of the target object")
    p.add_argument("--non-target", action="append", default=[],
                   help="canonical object name to exclude (§2 non-targets)")
    p.add_argument("--solver", default="pretransitive",
                   choices=sorted(SOLVERS))
    p.add_argument("--limit", type=_count(), default=25,
                   help="print at most this many chains")
    p.add_argument("--tree", action="store_true",
                   help="render the dependence forest (§2's chain browser)")
    p.add_argument("--min-strength", default="weak",
                   choices=["weak", "strong", "direct"],
                   help="drop chains weaker than this (triage filter)")
    p.add_argument("--max-core-assignments", type=_count(), default=None,
                   metavar="N",
                   help="bound in-core assignments to N via the "
                        "keep-or-discard block cache (§4); the cache is "
                        "shared across the analyze and depend phases")
    p.add_argument("--trace", dest="trace_out", metavar="FILE",
                   help="write the stage-span trace as JSON")
    _add_ledger_flags(p)
    p.add_argument("--stats", action="store_true",
                   help="print the uniform solver stats line")
    p.add_argument("--json", dest="json_out", metavar="FILE",
                   help="write a JSON report to FILE ('-' for stdout)")
    p.add_argument("--csv", dest="csv_out", metavar="FILE",
                   help="write a CSV report to FILE ('-' for stdout)")
    p.add_argument("--dot", dest="dot_out", metavar="FILE",
                   help="write the dependence forest as Graphviz DOT")

    p = sub.add_parser("check", help="validate a solver run against the "
                                     "soundness oracle")
    p.add_argument("inputs", nargs="+", metavar="input",
                   help="a linked .cla database, or .c sources to "
                        "compile+link in memory first")
    p.add_argument("--solver", default="pretransitive",
                   choices=sorted(SOLVERS))
    p.add_argument("--all-solvers", action="store_true",
                   help="run and check every registered solver")
    p.add_argument("--minimal", action="store_true",
                   help="also require every target to be address-taken "
                        "(subset-based solvers only)")
    p.add_argument("--field-independent", action="store_true",
                   help="compile .c inputs with the field-independent "
                        "struct model")
    _add_ledger_flags(p)

    p = sub.add_parser("fuzz", help="differential fuzzing: all solvers + "
                                    "oracle on random programs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iterations", type=_count(), default=50)
    p.add_argument("--max-units", type=_count(1), default=3,
                   help="cap translation units per generated program")
    p.add_argument("--scale", type=float, default=0.01,
                   help="profile scale for generated programs")
    p.add_argument("--profile", action="append", default=None,
                   help="restrict to specific benchmark profiles "
                        "(repeatable; default: all eight)")
    p.add_argument("--out", default="fuzz-repros",
                   help="directory for minimized failure reproductions")
    p.add_argument("--minimal", action="store_true",
                   help="also run the oracle's minimality check on the "
                        "subset-based solvers")
    p.add_argument("--shrink-budget", type=_count(), default=400,
                   help="max predicate runs for the delta debugger")
    _add_ledger_flags(p)

    p = sub.add_parser("callgraph", help="whole-program call graph "
                                          "(direct + resolved indirect)")
    p.add_argument("inputs", nargs="+", metavar="input",
                   help="a linked .cla database, or .c sources to "
                        "compile+link in memory first")
    p.add_argument("--solver", default="pretransitive",
                   choices=sorted(SOLVERS))
    p.add_argument("--dot", dest="dot_out", metavar="FILE",
                   help="write Graphviz DOT ('-' for stdout)")
    p.add_argument("--roots", action="append", default=[],
                   help="report functions unreachable from these roots")

    p = sub.add_parser("dump", help="inspect a CLA object file")
    p.add_argument("objectfile")
    p.add_argument("--block", help="dump one object's dynamic block")
    p.add_argument("--statics", action="store_true",
                   help="dump the static (x = &y) section")

    p = sub.add_parser("synth", help="generate a synthetic code base")
    p.add_argument("profile")
    p.add_argument("-o", "--output", required=True,
                   help="directory to write the .c/.h files into")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("transform",
                       help="database-to-database transforms (§4)")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--ovs", action="store_true",
                   help="off-line variable substitution (Rountev-Chandra)")
    p.add_argument("--context-sensitivity", type=_count(), metavar="K",
                   default=0,
                   help="clone functions with 2..K call sites")

    p = sub.add_parser("bench", help="regenerate a paper table, or "
                                     "compare two BENCH_*.json files")
    p.add_argument(
        "table",
        choices=["table1", "table2", "table3", "table4", "ablation",
                 "solvers", "demand", "cache", "compare"],
    )
    p.add_argument("paths", nargs="*", metavar="PATH",
                   help="for compare: the BASE and NEW BENCH_*.json files")
    p.add_argument("--threshold", type=float, default=0.15,
                   help="compare: relative regression threshold "
                        "on min times (default 0.15 = 15%%)")
    p.add_argument("--warn-only", action="store_true",
                   help="compare: report regressions but exit 0 "
                        "(the CI soft-gate mode)")
    p.add_argument("--min-abs-delta", type=float, default=None,
                   help="compare: absolute noise floor in seconds — a "
                        "slowdown below this never regresses "
                        "(default 50e-6)")
    p.add_argument("--scale", type=float, default=None,
                   help="override the per-profile default scale")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--profile", action="append", default=None,
                   help="restrict to specific benchmark profiles")
    p.add_argument("--max-core-assignments", type=_count(), default=None,
                   metavar="N",
                   help="run the table's analyses under a block-cache "
                        "memory budget (table3/demand only; the cache "
                        "table sweeps budgets itself)")
    p.add_argument("--trace", dest="trace_out", metavar="FILE",
                   help="write the bench-run trace as JSON")
    _add_ledger_flags(p)
    p.add_argument("--stats", action="store_true",
                   help="print the process-wide metric counters")

    p = sub.add_parser("serve", help="daemon: solve once, answer "
                                     "points-to/alias/chain queries warm")
    p.add_argument("inputs", nargs="+", metavar="input",
                   help="a linked .cla database, or .c/.h sources for an "
                        "incremental workspace (update op supported)")
    p.add_argument("--solver", default="pretransitive",
                   choices=sorted(SOLVERS))
    p.add_argument("--http", metavar="[HOST:]PORT",
                   help="serve HTTP+JSON on this address instead of the "
                        "stdin/stdout JSONL protocol (PORT 0 picks a "
                        "free port, printed on stderr)")
    p.add_argument("--certify", action="store_true",
                   help="check every solved fixpoint against the "
                        "soundness oracle before serving it")
    p.add_argument("--cache-entries", type=_count(), default=1024,
                   metavar="N",
                   help="bound the query-result LRU to N entries "
                        "(0 disables caching)")
    p.add_argument("--cache-dir", metavar="DIR",
                   help="object-file cache directory for workspace mode "
                        "(default: a temporary directory)")
    p.add_argument("-I", "--include", action="append", default=[],
                   help="add an #include search directory "
                        "(workspace mode)")
    p.add_argument("--slow-query-ms", type=float, default=None,
                   metavar="MS",
                   help="log requests slower than MS to the in-memory "
                        "slow-query log (traces op) and emit "
                        "serve.slow_query ledger events")
    p.add_argument("--trace-ring", type=_count(), default=256, metavar="N",
                   help="keep the last N request traces in memory for "
                        "the traces op (the slow-query log is capped at "
                        "min(N, 64); 0 disables both rings)")
    p.add_argument("--metrics-interval", type=float, default=5.0,
                   metavar="SEC",
                   help="sample RSS/uptime/tick-lag gauges for "
                        "/metrics every SEC seconds (0 disables the "
                        "background ticker)")
    _add_ledger_flags(p)

    p = sub.add_parser("report", help="render a run report from "
                                      "trace/events/bench artifacts")
    p.add_argument("--trace", dest="trace_in", metavar="FILE",
                   help="a trace.json written by --trace")
    p.add_argument("--events", dest="events_in", metavar="FILE",
                   help="an events.jsonl written by --events")
    p.add_argument("--bench", dest="bench_in", action="append",
                   default=[], metavar="FILE",
                   help="a BENCH_*.json file (repeatable)")
    p.add_argument("--trend", dest="trend_dir", metavar="DIR",
                   help="render per-benchmark min-time trends over every "
                        "timestamped BENCH_*.json snapshot under DIR")
    p.add_argument("--threshold", type=float, default=0.15,
                   help="relative slowdown (last vs best snapshot) that "
                        "flags a trend row as a regression "
                        "(default 0.15)")
    p.add_argument("--format", choices=["text", "markdown"],
                   default="text", help="output format")
    p.add_argument("-o", "--output", default="-",
                   help="write the report to FILE ('-' = stdout)")
    return parser


def _cmd_compile(args: argparse.Namespace) -> int:
    predefined = {}
    for item in args.define:
        name, equals, value = item.partition("=")
        predefined[name] = value if equals else "1"  # -DNAME= is empty
    options = CompileOptions(
        field_based=not args.field_independent,
        struct_model=args.struct_model,
        heap_model=args.heap_model,
        track_strings=args.track_strings,
        include_dirs=args.include,
        predefined=predefined,
    )
    to_dir = args.output.endswith(("/", os.sep)) or os.path.isdir(args.output)
    if len(args.sources) == 1 and not to_dir:
        out_paths = [args.output]
    else:
        # Several sources, or a directory: one object per source in it.
        os.makedirs(args.output, exist_ok=True)
        out_paths = [
            os.path.join(
                args.output,
                os.path.splitext(os.path.basename(src))[0] + ".o",
            )
            for src in args.sources
        ]
        if len(set(out_paths)) != len(out_paths):
            print("error: source basenames collide in the output directory",
                  file=sys.stderr)
            return 1
    Pipeline(options).compile(
        {src: read_source(src) for src in args.sources},
        dict(zip(args.sources, out_paths)), jobs=args.jobs,
    )
    for out in out_paths:
        with DatabaseStore.open(out) as database:
            print(
                f"{out}: {database.stats.in_file} primitive assignments, "
                f"{database.object_count()} objects"
            )
    return 0


def _cmd_link(args: argparse.Namespace) -> int:
    Pipeline().link_objects(args.objects, args.output)
    with DatabaseStore.open(args.output) as database:
        print(
            f"{args.output}: {database.object_count()} objects, "
            f"{database.stats.in_file} assignments"
        )
    return 0


def _print_cache_line(budget: int, st) -> None:
    """The block-cache accounting line under ``--max-core-assignments``."""
    print(
        f"cache: budget={budget} "
        f"peak in core={st.peak_in_core} reloads={st.reloads} "
        f"hits={st.block_hits} misses={st.block_misses} "
        f"evictions={st.block_evictions}"
    )


def _cmd_analyze(args: argparse.Namespace) -> int:
    c_files = _source_inputs("analyze", args.inputs)
    if c_files is None:
        return 2
    # Map the pretransitive-only toggles; passing one alongside another
    # solver is an error, not a silent no-op.
    toggles = [
        ("--no-demand", args.no_demand, "demand_load", False),
        ("--no-diff", args.no_diff, "enable_diff_propagation", False),
        ("--no-cache", args.no_cache, "enable_cache", False),
        ("--no-cycle-elim", args.no_cycle_elim,
         "enable_cycle_elimination", False),
    ]
    used = [flag for flag, on, _kw, _v in toggles if on]
    if used and args.solver != "pretransitive":
        print(
            f"error: {', '.join(used)} only applies to the pretransitive "
            f"solver (got --solver {args.solver})",
            file=sys.stderr,
        )
        return 2
    pipeline = Pipeline()
    store = None
    try:
        kwargs = {kw: value for _f, on, kw, value in toggles if on}
        with _event_sinks(args.events_out, args.progress, args.trace_out), \
                span("session", command="analyze"):
            store = _open_inputs(pipeline, args.inputs, c_files,
                                 args.max_core_assignments)
            run = lambda: pipeline.analyze(  # noqa: E731
                store, args.solver, **kwargs
            )
            if args.profile_out:
                from ..engine.profiling import profiled

                with profiled(args.profile_out):
                    m = measure(run)
            else:
                m = measure(run)
        result = m.result
        print(
            f"solver={args.solver} pointers={result.pointer_variables()} "
            f"relations={human_count(result.points_to_relations())} "
            f"real={m.real_seconds:.2f}s user={m.user_seconds:.2f}s "
            f"space={m.peak_rss_mb:.0f}MB"
        )
        print(
            f"assignments: in core={store.stats.in_core} "
            f"loaded={store.stats.loaded} in file={store.stats.in_file}"
        )
        if args.max_core_assignments is not None:
            _print_cache_line(args.max_core_assignments, store.stats)
        if args.profile_out:
            from ..engine.profiling import render_hotspots

            print(render_hotspots(args.profile_out))
        if args.stats:
            print(result.stats.render())
        for query in args.query:
            names = store.find_targets(query) or [query]
            for name in names:
                targets = sorted(result.points_to(name))
                shown = ", ".join(targets[:20])
                more = f" ... (+{len(targets) - 20})" if len(targets) > 20 else ""
                print(f"pts({name}) = {{{shown}{more}}}  [{len(targets)}]")
        if args.top:
            largest = sorted(
                result.pts.items(), key=lambda kv: -len(kv[1])
            )[: args.top]
            for name, targets in largest:
                print(f"{len(targets):8d}  {name}")
        if args.dot_out:
            from .export import points_to_dot

            _write_output(args.dot_out,
                          points_to_dot(result, include=args.query))
        if args.json_out:
            import json

            payload = json.dumps({
                "solver": args.solver,
                "pointer_variables": result.pointer_variables(),
                "points_to_relations": result.points_to_relations(),
                "assignments": {
                    "in_core": store.stats.in_core,
                    "loaded": store.stats.loaded,
                    "in_file": store.stats.in_file,
                    "peak_in_core": store.stats.peak_in_core,
                    "reloads": store.stats.reloads,
                },
                "points_to": {
                    name: sorted(targets)
                    for name, targets in sorted(result.pts.items())
                    if targets
                },
            }, indent=2)
            _write_output(args.json_out, payload, end="\n")
    finally:
        if store is not None:
            store.close()
    return 0


def _cmd_depend(args: argparse.Namespace) -> int:
    from ..ir.strength import Strength

    c_files = _source_inputs("depend", args.inputs)
    if c_files is None:
        return 2
    threshold = Strength[args.min_strength.upper()]
    pipeline = Pipeline()
    store = None
    try:
        with _event_sinks(args.events_out, args.progress, args.trace_out), \
                span("session", command="depend"):
            # One cache serves both phases: the depend phase re-requests
            # blocks the analysis already touched, so retained blocks come
            # back as hits instead of re-reads.
            store = _open_inputs(pipeline, args.inputs, c_files,
                                 args.max_core_assignments)
            points_to = pipeline.analyze(store, args.solver)
            try:
                result = pipeline.depend(
                    store, points_to, args.target,
                    frozenset(args.non_target), min_strength=threshold,
                )
            except KeyError:
                print(f"error: no object named {args.target!r}",
                      file=sys.stderr)
                return 1
        counts = summarize(result)
        total = sum(counts.values())
        print(
            f"{total} dependent objects "
            f"(direct={counts['direct']} strong={counts['strong']} "
            f"weak={counts['weak']}); blocks loaded: {result.blocks_loaded}"
        )
        if args.max_core_assignments is not None:
            _print_cache_line(args.max_core_assignments, store.stats)
        if args.stats:
            print(points_to.stats.render())
        if args.tree:
            from ..depend.report import render_tree

            print(render_tree(store, result))
        else:
            for line in render_all(store, result, limit=args.limit):
                print(" ", line)
        if args.json_out:
            from ..depend.report import to_json

            _write_output(args.json_out, to_json(store, result), end="\n")
        if args.csv_out:
            from ..depend.report import to_csv

            _write_output(args.csv_out, to_csv(store, result))
        if args.dot_out:
            from .export import dependence_dot

            _write_output(args.dot_out, dependence_dot(store, result))
    finally:
        if store is not None:
            store.close()
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from ..checker import check_result

    c_files = _source_inputs("check", args.inputs)
    if c_files is None:
        return 2
    solvers = sorted(SOLVERS) if args.all_solvers else [args.solver]
    pipeline = Pipeline(CompileOptions(
        field_based=not args.field_independent
    ))
    store = None
    violations = 0
    try:
        with _event_sinks(args.events_out, args.progress):
            store = _open_inputs(pipeline, args.inputs, c_files)
            for solver in solvers:
                minimal = args.minimal
                if minimal and SOLVERS[solver].precision != "andersen":
                    print(f"note: skipping minimality for {solver} "
                          f"(not a subset-based solver)")
                    minimal = False
                result = pipeline.analyze(store, solver)
                report = check_result(store, result,
                                      check_minimal=minimal)
                violations += len(report.violations)
                print(report.render())
    finally:
        if store is not None:
            store.close()
    return 1 if violations else 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from ..checker import FuzzConfig, run_fuzz
    from ..synth.profiles import BENCHMARK_ORDER, get_profile

    profiles = tuple(args.profile) if args.profile else tuple(BENCHMARK_ORDER)
    for name in profiles:
        try:
            get_profile(name)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
    config = FuzzConfig(
        seed=args.seed,
        iterations=args.iterations,
        max_units=args.max_units,
        scale=args.scale,
        profiles=profiles,
        out_dir=args.out,
        check_minimal=args.minimal,
        shrink_budget=args.shrink_budget,
    )
    with _event_sinks(args.events_out, args.progress):
        m = measure(lambda: run_fuzz(config))
    outcome = m.result
    print(
        f"fuzz: {outcome.iterations_run}/{config.iterations} programs, "
        f"{outcome.solver_runs} solver runs, "
        f"{outcome.oracle_checks} oracle checks, "
        f"seed {config.seed}, {m.real_seconds:.1f}s"
    )
    if outcome.ok:
        print("all solvers agree; no oracle violations")
        return 0
    failure = outcome.failure
    print(
        f"FAILURE at iteration {failure.iteration} "
        f"(profile {failure.profile}, seed {failure.case_seed}):",
        file=sys.stderr,
    )
    for description in failure.descriptions:
        print(f"  {description}", file=sys.stderr)
    if failure.shrink is not None:
        print(
            f"minimized to {failure.shrink.assignment_lines} assignment "
            f"statement(s) in {len(failure.shrink.files)} file(s)",
            file=sys.stderr,
        )
    print(f"repro written to {failure.repro_dir}", file=sys.stderr)
    return 1


def _cmd_callgraph(args: argparse.Namespace) -> int:
    from ..depend.callgraph import build_call_graph

    c_files = _source_inputs("callgraph", args.inputs)
    if c_files is None:
        return 2
    pipeline = Pipeline()
    store = _open_inputs(pipeline, args.inputs, c_files)
    try:
        points_to = pipeline.analyze(store, args.solver)
        graph = build_call_graph(store, points_to)
        n_edges = sum(len(c) for c in graph.edges.values())
        print(
            f"{len(graph.functions())} functions, {n_edges} call edges "
            f"({len(graph.indirect)} via function pointers)"
        )
        if graph.unresolved_pointers:
            print(f"unresolved pointers: "
                  f"{', '.join(sorted(graph.unresolved_pointers))}")
        for caller in sorted(graph.edges):
            callees = ", ".join(
                c + ("*" if (caller, c) in graph.indirect else "")
                for c in sorted(graph.edges[caller])
            )
            print(f"  {caller} -> {callees}")
        if args.roots:
            live = graph.reachable_from(args.roots)
            dead = sorted(graph.functions() - live)
            print(f"reachable from {', '.join(args.roots)}: "
                  f"{len(live)} functions; unreachable: {len(dead)}")
            for fn in dead:
                print(f"  dead: {fn}")
        if args.dot_out:
            _write_output(args.dot_out, graph.to_dot())
    finally:
        store.close()
    return 0


def _cmd_dump(args: argparse.Namespace) -> int:
    with DatabaseStore.open(args.objectfile) as database:
        kind = "executable" if database.linked else "object file"
        model = database.struct_model.replace("_", "-")
        print(f"{args.objectfile}: CLA {kind}, {model}, "
              f"{database.source_lines} source lines")
        b_nul = b"\x00"
        for tag, (offset, size) in database.sections.items():
            print(f"  section {tag.rstrip(b_nul).decode():8s} "
                  f"offset={offset:<10d} size={size}")
        print(f"  objects: {database.object_count()}, "
              f"assignments: {database.stats.in_file}")
        if args.statics:
            print("static section:")
            for a in database.fetch_statics():
                print(f"  {a.render()}  @ {a.location}")
        if args.block:
            block = database.fetch_block(args.block)
            if block is None:
                print(f"no block for {args.block!r}")
                return 1
            obj = database.get_object(args.block)
            kind = obj.kind.name if obj is not None else "VARIABLE"
            print(f"block {args.block} ({kind}):")
            for a in block.assignments:
                print(f"  {a.render()}  @ {a.location}")
            if block.function_record:
                r = block.function_record
                print(f"  function record: args={r.args} ret={r.ret}")
            if block.indirect_record:
                r = block.indirect_record
                print(f"  indirect-call record: args={r.args} ret={r.ret}")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    from ..synth import generate

    program = generate(args.profile, scale=args.scale, seed=args.seed)
    paths = program.write_to(args.output)
    print(
        f"{args.output}: {len(paths)} files, "
        f"{program.source_lines()} source lines, "
        f"{program.profile.total_assignments} planned assignments"
    )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.table == "compare":
        if len(args.paths) != 2:
            print("error: bench compare takes exactly two BENCH_*.json "
                  "paths (BASE NEW)", file=sys.stderr)
            return 2
        from .benchcmp import DEFAULT_MIN_ABS_DELTA, run_compare

        min_abs = (args.min_abs_delta if args.min_abs_delta is not None
                   else DEFAULT_MIN_ABS_DELTA)
        try:
            return run_compare(
                args.paths[0], args.paths[1],
                threshold=args.threshold, warn_only=args.warn_only,
                min_abs_delta=min_abs,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.paths:
        print(f"error: positional paths only apply to bench compare "
              f"(got {args.table})", file=sys.stderr)
        return 2
    if (
        args.max_core_assignments is not None
        and args.table not in ("table3", "demand")
    ):
        print(
            f"error: --max-core-assignments only applies to the table3 "
            f"and demand tables (got {args.table})",
            file=sys.stderr,
        )
        return 2
    kwargs = {"scale": args.scale, "seed": args.seed}
    if args.profile:
        kwargs["profiles"] = args.profile
    with _event_sinks(args.events_out, args.progress, args.trace_out), \
            span("bench", table=args.table):
        headers, rows, title = _bench_table(args, kwargs)
    print(tables.render(title, headers, rows))
    if args.stats:
        for name, value in REGISTRY.snapshot().items():
            print(f"{name}={value}")
    return 0


def _bench_table(args: argparse.Namespace, kwargs: dict):
    if args.table == "table1":
        headers, rows = tables.table1_rows()
        title = "Table 1: Classification of operations"
    elif args.table == "table2":
        headers, rows = tables.table2_rows(**kwargs)
        title = "Table 2: Benchmarks (synthetic, per-profile scale)"
    elif args.table == "table3":
        headers, rows = tables.table3_rows(
            max_core_assignments=args.max_core_assignments, **kwargs
        )
        title = "Table 3: Results (field-based pre-transitive solver)"
    elif args.table == "table4":
        headers, rows = tables.table4_rows(**kwargs)
        title = "Table 4: Field-based vs field-independent"
    elif args.table == "ablation":
        size = int(args.scale) if args.scale and args.scale > 1 else 500
        headers, rows = tables.ablation_rows(size=size)
        title = (f"Ablation: caching, cycle elimination & difference "
                 f"propagation (§5), kernels n={size}")
    elif args.table == "solvers":
        headers, rows = tables.solver_rows(**kwargs)
        title = "Solver comparison"
    elif args.table == "cache":
        headers, rows = tables.cache_rows(**kwargs)
        title = "Keep-or-discard block cache: memory budget sweep (§4)"
    else:
        headers, rows = tables.demand_rows(
            max_core_assignments=args.max_core_assignments, **kwargs
        )
        title = "Demand loading vs full loading (§4)"
    return headers, rows, title


def _cmd_transform(args: argparse.Namespace) -> int:
    from ..cla.transform import (
        ContextSensitivity,
        OfflineVariableSubstitution,
        transform_file,
    )

    transforms = []
    ovs = None
    if args.ovs:
        ovs = OfflineVariableSubstitution()
        transforms.append(ovs)
    cs = None
    if args.context_sensitivity:
        cs = ContextSensitivity(max_sites=args.context_sensitivity)
        transforms.append(cs)
    if not transforms:
        print("error: pick at least one of --ovs / --context-sensitivity",
              file=sys.stderr)
        return 1
    image = transform_file(args.input, args.output, transforms)
    parts = [f"{args.output}: {len(image.assignments)} assignments"]
    if ovs is not None:
        parts.append(f"OVS removed {ovs.removed_assignments} "
                     f"(substituted {len(ovs.substituted)} variables)")
    if cs is not None:
        parts.append(f"cloned {cs.cloned_functions} functions "
                     f"(+{cs.added_assignments} body copies)")
    print("; ".join(parts))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from ..serve import (
        CertificationError,
        ResourceTicker,
        ServeSession,
        serve_jsonl,
    )
    from .incremental import Workspace

    c_files = _source_inputs("serve", args.inputs, (".c", ".h"))
    if c_files is None:
        return 2
    host, port = "127.0.0.1", None
    if args.http:
        head, sep, tail = args.http.rpartition(":")
        if head:
            host = head
        try:
            port = int(tail)
        except ValueError:
            print(f"error: --http wants [HOST:]PORT (got {args.http!r})",
                  file=sys.stderr)
            return 2
    workspace = None
    session = None
    own_cache = None
    try:
        with _event_sinks(args.events_out, args.progress):
            if c_files:
                cache_dir = args.cache_dir
                if cache_dir is None:
                    # The daemon's own object cache: a return to an older
                    # text reads its unit back instead of recompiling it.
                    own_cache = tempfile.TemporaryDirectory(
                        prefix="cla-serve-")
                    cache_dir = own_cache.name
                # One process, as every other command compiles by default:
                # a worker pool barely pays on a small code base.
                workspace = Workspace(
                    cache_dir=cache_dir,
                    options=CompileOptions(include_dirs=args.include),
                )
                for path in c_files:
                    if path.endswith(".h"):
                        workspace.add_header(path, read_source(path))
                    else:
                        workspace.add_source(path, read_source(path))
            session = ServeSession(
                workspace=workspace,
                database=None if c_files else args.inputs[0],
                solver=args.solver,
                cache_entries=args.cache_entries,
                certify=args.certify,
                slow_query_ms=args.slow_query_ms,
                trace_ring=args.trace_ring,
            )
            ticker = None
            if args.metrics_interval > 0:
                ticker = ResourceTicker(interval=args.metrics_interval)
                ticker.start()
            try:
                if port is None:
                    serve_jsonl(session)
                else:
                    # The HTTP stack loads only for an HTTP daemon.
                    from ..serve.http import make_http_server

                    server = make_http_server(session, host, port)
                    bound_host, bound_port = server.server_address[:2]
                    print(f"serving http://{bound_host}:{bound_port}",
                          file=sys.stderr, flush=True)
                    try:
                        server.serve_forever(poll_interval=0.1)
                    except KeyboardInterrupt:
                        pass
                    finally:
                        server.server_close()
            except CertificationError as exc:
                # Integrity failure under --certify: refuse to keep
                # serving; the last response already went unanswered.
                print(f"error: {exc}", file=sys.stderr)
                return 1
            finally:
                if ticker is not None:
                    ticker.stop()
    finally:
        if session is not None:
            session.close()
        if workspace is not None:
            workspace.close()
        if own_cache is not None:
            own_cache.cleanup()
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    if not (args.trace_in or args.events_in or args.bench_in
            or args.trend_dir):
        print("error: report needs at least one of --trace, --events, "
              "--bench, --trend", file=sys.stderr)
        return 2
    from .report import render_report

    try:
        text = render_report(
            trace_path=args.trace_in,
            events_path=args.events_in,
            bench_paths=args.bench_in,
            trend_dir=args.trend_dir,
            trend_threshold=args.threshold,
            fmt=args.format,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write_output(args.output, text)
    return 0


_COMMANDS = {
    "compile": _cmd_compile,
    "link": _cmd_link,
    "analyze": _cmd_analyze,
    "check": _cmd_check,
    "fuzz": _cmd_fuzz,
    "depend": _cmd_depend,
    "callgraph": _cmd_callgraph,
    "dump": _cmd_dump,
    "synth": _cmd_synth,
    "transform": _cmd_transform,
    "bench": _cmd_bench,
    "serve": _cmd_serve,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ClaFormatError, BuildError, LinkError) as exc:
        # A corrupt/truncated database, sources that do not compile
        # (every failing file named) or inputs that do not link: one
        # line, no traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # Missing file, permission trouble, directory-instead-of-file …
        # — every subcommand opens user-named paths, so render uniformly.
        reason = exc.strerror or str(exc)
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"error: {where}{reason}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
