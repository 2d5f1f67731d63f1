"""Run reports: the paper-style write-up of one run's artifacts.

``repro-cla report`` turns the machine-readable outputs of a run —
``--trace trace.json`` (stage spans + counters), ``--events events.jsonl``
(the run ledger, which carries the same spans), and ``BENCH_*.json``
files — into the tables the paper reports results with: a per-phase cost
table (§6's wall/user/space breakdown, from either file), the solver
convergence curve (§5's per-round behaviour, with a sparkline), CLA
load/cache accounting (§4 / Table 3's last columns), and the bench
stats.  Output is text (the paper's aligned tables) or
markdown for PR descriptions and CI summaries.

Every section is optional: the report renders whatever artifacts it is
given and says which inputs produced it.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Iterator

from ..engine.events import read_events
from ..engine.obs import span_tree
from .benchcmp import DEFAULT_MIN_ABS_DELTA, DEFAULT_THRESHOLD, load_bench
from .tables import render, render_markdown

Renderer = Callable[[str, list[str], list[list[str]]], str]

#: Convergence tables longer than this are elided in the middle.
MAX_CONVERGENCE_ROWS = 24

_SPARKS = "▁▂▃▄▅▆▇█"


def sparkline(values: list[float]) -> str:
    """A one-line shape of a series (the convergence curve at a glance)."""
    if not values:
        return ""
    hi = max(values)
    if hi <= 0:
        return _SPARKS[0] * len(values)
    top = len(_SPARKS) - 1
    return "".join(
        _SPARKS[min(top, int(v / hi * top))] if v > 0 else _SPARKS[0]
        for v in values
    )


def load_trace(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or "trace" not in doc:
        raise ValueError(f"{path}: not a trace json (no 'trace' key)")
    return doc


def _iter_spans(
    spans: list[dict], depth: int = 0
) -> Iterator[tuple[dict, int]]:
    for span in spans:
        yield span, depth
        yield from _iter_spans(span.get("children", []), depth + 1)


def _attr_summary(attrs: dict[str, Any], limit: int = 48) -> str:
    parts = []
    for key, value in attrs.items():
        text = f"{key}={value}"
        if len(text) > limit:
            text = text[: limit - 1] + "…"
        parts.append(text)
        if len(parts) == 4:
            break
    return " ".join(parts)


def phase_rows(roots: list[dict]) -> tuple[list[str], list[list[str]]]:
    """The §6-style per-phase cost table from a span tree: a trace
    file's ``trace`` list, or :func:`~repro.engine.obs.span_tree` over a
    ledger's ``stage`` records.

    Per-file ``unit`` spans are folded into their parent compile span's
    ``files`` attribute rather than listed (they would drown the table).
    """
    headers = ["phase", "start", "wall", "user", "rss Δ", "detail"]
    rows = []
    for span, depth in _iter_spans(roots):
        if span.get("name") == "unit":
            continue
        rows.append([
            "  " * depth + str(span.get("name", "?")),
            f"{span.get('start_s', 0.0):.3f}s",
            f"{span.get('wall_s', 0.0):.3f}s",
            f"{span.get('user_s', 0.0):.3f}s",
            f"{span.get('rss_delta_mb', 0.0):.1f}MB",
            _attr_summary(span.get("attrs", {})),
        ])
    return headers, rows


def convergence_rows(
    records: list[dict],
) -> list[tuple[str, list[str], list[list[str]], str]]:
    """Per-solver convergence tables from ``solver.round`` records.

    Returns ``(solver, headers, rows, edges_sparkline)`` per solver run,
    in ledger order; long runs are elided in the middle."""
    headers = ["round", "edges +", "lvals +", "cache hits", "misses",
               "hit rate", "cycles +", "blocks"]
    by_solver: dict[str, list[dict]] = {}
    order: list[str] = []
    for r in records:
        if r.get("kind") != "solver.round":
            continue
        solver = str(r.get("solver", "?"))
        if solver not in by_solver:
            by_solver[solver] = []
            order.append(solver)
        by_solver[solver].append(r)
    out = []
    for solver in order:
        rounds = by_solver[solver]
        rows = [
            [
                str(r.get("round", 0)),
                str(r.get("edges_added", 0)),
                str(r.get("delta_lvals", 0)),
                str(r.get("lval_cache_hits", 0)),
                str(r.get("lval_cache_misses", 0)),
                f"{r.get('cache_hit_rate', 0.0):.1%}",
                str(r.get("cycles_collapsed", 0)),
                str(r.get("blocks_loaded", 0)),
            ]
            for r in rounds
        ]
        if len(rows) > MAX_CONVERGENCE_ROWS:
            head = rows[: MAX_CONVERGENCE_ROWS - 4]
            tail = rows[-3:]
            gap = [f"… {len(rows) - len(head) - len(tail)} rounds elided …"]
            gap += [""] * (len(headers) - 1)
            rows = head + [gap] + tail
        curve = sparkline([r.get("edges_added", 0) for r in rounds])
        out.append((solver, headers, rows, curve))
    return out


def solver_summary_rows(
    records: list[dict],
) -> tuple[list[str], list[list[str]]]:
    """One row per completed solve, from ``solver.end`` records."""
    headers = ["solver", "rounds", "edges", "constraints", "cycles",
               "in core", "loaded", "in file", "reloads"]
    rows = []
    for r in records:
        if r.get("kind") != "solver.end":
            continue
        stats = r.get("stats") or {}
        rows.append([
            str(r.get("solver", "?")),
            str(r.get("rounds", 0)),
            str(stats.get("edges_added", 0)),
            str(stats.get("constraints", 0)),
            str(stats.get("cycles_collapsed", 0)),
            str(stats.get("assignments_in_core", 0)),
            str(stats.get("assignments_loaded", 0)),
            str(stats.get("assignments_in_file", 0)),
            str(stats.get("assignments_reloaded", 0)),
        ])
    return headers, rows


def cache_rows(records: list[dict]) -> tuple[list[str], list[list[str]]]:
    """CLA pressure accounting from the ``cla.*`` ledger records."""
    headers = ["event", "count", "assignments"]
    loads = [r for r in records if r.get("kind") == "cla.load"]
    reloads = [r for r in records if r.get("kind") == "cla.reload"]
    evicts = [r for r in records if r.get("kind") == "cla.evict"]
    rows = [
        ["load", str(len(loads)),
         str(sum(r.get("assignments", 0) for r in loads))],
        ["reload", str(len(reloads)),
         str(sum(r.get("assignments", 0) for r in reloads))],
        ["evict", str(len(evicts)),
         str(sum(r.get("assignments", 0) for r in evicts))],
    ]
    last = None
    for r in records:
        if r.get("kind") in ("cla.load", "cla.reload", "cla.evict"):
            last = r
    if last is not None:
        rows.append(["final in core", "", str(last.get("in_core", 0))])
    return headers, rows


def percentile(sorted_values: list[float], q: float) -> float:
    """Exact ``q``-quantile of an already-sorted sample (linear
    interpolation between closest ranks); 0.0 for an empty sample."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) \
        * (pos - lo)


def serve_rows(
    records: list[dict],
) -> tuple[tuple[list[str], list[list[str]]],
           tuple[list[str], list[list[str]]]]:
    """The serving section: per-op latency/hit-rate from ``serve.query``
    records and one row per ``serve.reload``.

    Latency percentiles are exact, computed over the raw ``wall_ms``
    samples in the ledger (the daemon's own ``stats`` op estimates the
    same three from its histogram buckets).

    Returns ``(queries_table, reloads_table)``, either of which may have
    no rows (a ledger without a serve daemon in it)."""
    per_op: dict[str, dict[str, Any]] = {}
    op_order: list[str] = []
    reload_rows: list[list[str]] = []
    for r in records:
        kind = r.get("kind")
        if kind == "serve.query":
            op = str(r.get("op", "?"))
            agg = per_op.get(op)
            if agg is None:
                agg = per_op[op] = {
                    "hits": 0, "errors": 0, "walls": [],
                }
                op_order.append(op)
            agg["hits"] += bool(r.get("cache_hit"))
            agg["errors"] += not r.get("ok", True)
            agg["walls"].append(float(r.get("wall_ms", 0.0)))
        elif kind == "serve.reload":
            reload_rows.append([
                str(r.get("generation", 0)),
                str(r.get("compiled", 0)),
                str(r.get("reused", 0)),
                "yes" if r.get("certified") else "no",
                f"{r.get('wall_s', 0.0):.3f}s",
            ])
    query_headers = ["op", "queries", "cache hits", "hit rate", "errors",
                     "mean ms", "p50 ms", "p90 ms", "p99 ms", "max ms"]
    query_rows = []
    for op in op_order:
        agg = per_op[op]
        walls = sorted(agg["walls"])
        count = len(walls)
        query_rows.append([
            op,
            str(count),
            str(agg["hits"]),
            f"{agg['hits'] / count:.1%}" if count else "-",
            str(agg["errors"]),
            f"{sum(walls) / count:.3f}" if count else "-",
            f"{percentile(walls, 0.50):.3f}",
            f"{percentile(walls, 0.90):.3f}",
            f"{percentile(walls, 0.99):.3f}",
            f"{walls[-1]:.3f}" if walls else "-",
        ])
    reload_headers = ["generation", "compiled", "reused", "certified",
                      "wall"]
    return (query_headers, query_rows), (reload_headers, reload_rows)


def counter_rows(trace: dict) -> tuple[list[str], list[list[str]]]:
    headers = ["counter", "value"]
    rows = [[name, str(value)]
            for name, value in sorted(trace.get("counters", {}).items())]
    return headers, rows


def bench_rows(doc: dict) -> tuple[list[str], list[list[str]]]:
    headers = ["benchmark", "min", "mean", "stddev", "rounds"]
    rows = []
    for name, entry in sorted(doc.get("benchmarks", {}).items()):
        stats = entry.get("stats", {})
        rows.append([
            name,
            f"{stats.get('min', 0.0):.4f}s",
            f"{stats.get('mean', 0.0):.4f}s",
            f"{stats.get('stddev', 0.0):.4f}s",
            str(stats.get("rounds", 0)),
        ])
    return headers, rows


def mloc_headline(doc: dict) -> str | None:
    """The paper's headline metric, from a ``BENCH_mloc.json`` document.

    Picks the best point (highest MLoC of source per second of *solver*
    time) across the suite's runs; returns None
    for non-mloc suites or when no point carries the rate.  A point that
    also carries ``source_mloc_per_s`` (source to fixpoint: compile plus
    solve) has that rate printed beside the solver-only one.
    """
    if doc.get("suite") != "mloc":
        return None
    best_name, best = None, None
    for name, entry in sorted(doc.get("benchmarks", {}).items()):
        info = entry.get("extra_info", {})
        rate = info.get("mloc_per_s")
        if rate and (best is None or rate > best["mloc_per_s"]):
            best_name, best = name, info
    if best is None:
        return None
    loc = f"{best.get('source_loc', 0):,} source lines"
    solver_s = best.get("solver_s", 0.0)
    source_rate = best.get("source_mloc_per_s")
    if source_rate is None:
        return (
            f"Headline: {best['mloc_per_s']:.2f} MLoC/s of solver time "
            f"({loc} in {solver_s:.3f}s, {best_name})"
        )
    return (
        f"Headline: {best['mloc_per_s']:.2f} MLoC/s of solver time, "
        f"{source_rate:.3g} MLoC/s source to fixpoint ({loc}: "
        f"{solver_s:.3f}s solve + {best.get('compile_s', 0.0):.3f}s "
        f"compile, {best_name})"
    )


# ---------------------------------------------------------------------------
# Bench trends: a series of timestamped BENCH_*.json snapshots
# ---------------------------------------------------------------------------


def load_bench_series(
    trend_dir: str,
) -> tuple[dict[str, list[dict]], list[str]]:
    """Every valid ``BENCH_*.json`` under ``trend_dir`` (recursively),
    grouped by suite and ordered oldest-first.

    Ordering uses the document's own ``created`` timestamp (stamped by
    ``benchmarks/conftest.py``) and falls back to file mtime for older
    snapshots that predate the field.  Unreadable or schema-mismatched
    files are skipped, each reported as one warning line in the second
    return value — a history directory must tolerate a truncated upload.
    """
    found: list[tuple[float, str, dict]] = []
    warnings: list[str] = []
    for root, _dirs, files in os.walk(trend_dir):
        for fname in sorted(files):
            if not (fname.startswith("BENCH_") and fname.endswith(".json")):
                continue
            path = os.path.join(root, fname)
            try:
                doc = load_bench(path)
            except (OSError, ValueError) as exc:
                warnings.append(f"warning: skipped {path}: {exc}")
                continue
            created = doc.get("created")
            if not isinstance(created, (int, float)):
                created = os.path.getmtime(path)
            found.append((float(created), path, doc))
    found.sort(key=lambda item: (item[0], item[1]))
    by_suite: dict[str, list[dict]] = {}
    for _created, path, doc in found:
        suite = str(doc.get("suite") or os.path.basename(path))
        by_suite.setdefault(suite, []).append(doc)
    return by_suite, warnings


def trend_rows(
    series: list[dict],
    threshold: float = DEFAULT_THRESHOLD,
    min_abs_delta: float = DEFAULT_MIN_ABS_DELTA,
) -> tuple[list[str], list[list[str]]]:
    """Per-benchmark min-time trend over one suite's snapshot series.

    The sparkline is the min-time curve oldest→newest; a row flags
    ``REGRESSION`` when the latest snapshot is more than ``threshold``
    above the best one ever seen (and the delta clears the absolute
    noise floor, mirroring ``bench compare``), ``improved`` when the
    latest beats the first snapshot by the same band.
    """
    headers = ["benchmark", "runs", "first", "best", "last", "last/best",
               "trend", "status"]
    names: list[str] = []
    for doc in series:
        for name in doc.get("benchmarks", {}):
            if name not in names:
                names.append(name)
    rows = []
    for name in sorted(names):
        mins: list[float] = []
        for doc in series:
            entry = doc.get("benchmarks", {}).get(name)
            if entry is None:
                continue
            stats = entry.get("stats", {})
            if "min" in stats:
                mins.append(float(stats["min"]))
        if not mins:
            continue
        first, best, last = mins[0], min(mins), mins[-1]
        ratio = last / best if best > 0 else float("inf")
        if last > best * (1.0 + threshold) and last - best > min_abs_delta:
            status = "REGRESSION"
        elif len(mins) > 1 and last < first * (1.0 - threshold):
            status = "improved"
        else:
            status = "ok"
        rows.append([
            name,
            str(len(mins)),
            f"{first:.4f}s",
            f"{best:.4f}s",
            f"{last:.4f}s",
            f"{ratio:.2f}x",
            sparkline(mins),
            status,
        ])
    return headers, rows


def trend_sections(
    trend_dir: str,
    threshold: float = DEFAULT_THRESHOLD,
    table: Renderer = render,
) -> list[str]:
    """The ``--trend DIR`` report sections: one trend table per suite."""
    by_suite, warnings = load_bench_series(trend_dir)
    sections = list(warnings)
    if not by_suite:
        sections.append(
            f"warning: no BENCH_*.json snapshots under {trend_dir}"
        )
        return sections
    for suite, series in sorted(by_suite.items()):
        headers, rows = trend_rows(series, threshold=threshold)
        if not rows:
            continue
        title = (f"Trend: {suite} ({len(series)} snapshots, "
                 f"threshold {threshold:.0%})")
        sections.append(table(title, headers, rows))
        flagged = [r[0] for r in rows if r[-1] == "REGRESSION"]
        if flagged:
            sections.append(
                f"{len(flagged)} regression(s) in {suite}: "
                + ", ".join(flagged)
            )
    return sections


def render_report(
    trace_path: str | None = None,
    events_path: str | None = None,
    bench_paths: list[str] | None = None,
    fmt: str = "text",
    trend_dir: str | None = None,
    trend_threshold: float = DEFAULT_THRESHOLD,
) -> str:
    """Assemble the full run report from whichever artifacts exist.

    Degrades gracefully: a missing, truncated or schema-mismatched
    artifact costs its own sections, reported as a one-line warning, and
    the rest of the report still renders.
    """
    if fmt not in ("text", "markdown"):
        raise ValueError(f"unknown report format {fmt!r}")
    table: Renderer = render_markdown if fmt == "markdown" else render
    sections: list[str] = []
    inputs = [p for p in (trace_path, events_path, *(bench_paths or ()),
                          trend_dir)
              if p]
    heading = "Run report" if not inputs else (
        "Run report — " + ", ".join(inputs)
    )
    sections.append(f"# {heading}" if fmt == "markdown" else heading)

    def _skip(path: str, exc: Exception) -> None:
        sections.append(f"warning: skipped {path}: {exc}")

    if trace_path:
        try:
            trace = load_trace(trace_path)
        except (OSError, ValueError) as exc:
            trace = None
            _skip(trace_path, exc)
        if trace is not None:
            headers, rows = phase_rows(trace["trace"])
            if rows:
                sections.append(table("Phases", headers, rows))
            headers, rows = counter_rows(trace)
            if rows:
                sections.append(table("Counters", headers, rows))

    if events_path:
        try:
            records = read_events(events_path)
        except (OSError, ValueError) as exc:
            records = None
            _skip(events_path, exc)
        if records is not None:
            if trace_path is None or trace is None:
                headers, rows = phase_rows(span_tree(records))
                if rows:
                    sections.append(
                        table("Phases (from ledger)", headers, rows)
                    )
            headers, rows = solver_summary_rows(records)
            if rows:
                sections.append(table("Solver runs", headers, rows))
            for solver, headers, rows, curve in convergence_rows(records):
                title = f"Convergence: {solver}"
                if curve:
                    title += f"  edges/round {curve}"
                sections.append(table(title, headers, rows))
            headers, rows = cache_rows(records)
            if any(r[1] not in ("", "0") for r in rows):
                sections.append(table("CLA load accounting", headers, rows))
            queries, reloads = serve_rows(records)
            if queries[1]:
                sections.append(table("Serving: queries", *queries))
            if reloads[1]:
                sections.append(table("Serving: reloads", *reloads))

    for path in bench_paths or ():
        try:
            doc = load_bench(path)
        except (OSError, ValueError) as exc:
            _skip(path, exc)
            continue
        headers, rows = bench_rows(doc)
        suite = doc.get("suite", path)
        sections.append(table(f"Bench: {suite}", headers, rows))
        headline = mloc_headline(doc)
        if headline:
            sections.append(f"**{headline}**" if fmt == "markdown"
                            else headline)

    if trend_dir:
        try:
            sections.extend(
                trend_sections(trend_dir, threshold=trend_threshold,
                               table=table)
            )
        except OSError as exc:
            _skip(trend_dir, exc)

    return "\n\n".join(sections) + "\n"
