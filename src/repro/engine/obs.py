"""Structured observability for the pipeline engine.

The paper's practicality argument rests on being able to *measure* where
analysis time and memory go (§6 reports wall clock, user time and process
size per phase; Table 3's last three columns are load accounting).  This
module is the measurement spine the rest of the system reports through:

* :func:`span` — nested, named timing regions published on the event
  bus (:mod:`repro.engine.events`).  Every span records wall time
  (:func:`time.perf_counter`), user time (:func:`os.times`), the
  peak-RSS delta and the cyclic collections per generation
  (:func:`gc.get_stats`) across its extent, plus arbitrary attributes
  (solver name, file counts, solver stats).  The :class:`Tracer` sink
  assembles them into a trace that exports as a JSON tree or flat JSONL
  (see docs/OBSERVABILITY.md for the schema); the ``--events`` ledger
  carries the same records.
* :class:`Counter` / :class:`MetricsRegistry` — process-wide monotonic
  counters.  The CLA store layer feeds its load accounting here
  (``cla.blocks_loaded``, ``cla.assignments_loaded``) and every solver
  publishes its :class:`~repro.engine.stats.SolverStats`, so a single
  snapshot answers "what did this process do".

The point-measurement helpers (:func:`measure`, :class:`Measurement`,
the table/number formatters) live here too.

Absolute values are not comparable to the paper's 800 MHz C implementation
(EXPERIMENTS.md quantifies the gap); the benches compare *shapes*.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import resource
import time
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

from .events import EVENTS, SpanEvent

# ---------------------------------------------------------------------------
# Point measurements
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class Measurement:
    """One timed run."""

    real_seconds: float
    user_seconds: float
    peak_rss_mb: float
    result: Any = None

    def row(self) -> tuple[str, str, str]:
        return (
            f"{self.real_seconds:.3f}s",
            f"{self.user_seconds:.3f}s",
            f"{self.peak_rss_mb:.1f}MB",
        )


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB (Linux: ru_maxrss KB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_user_s() -> float:
    """User CPU of this process *and* its reaped children.

    Parallel compiles fan the work out to worker processes; counting only
    ``os.times().user`` would report near-zero user time for a ``--jobs``
    build, so every user-time measurement here includes
    ``children_user``.
    """
    t = os.times()
    return t.user + t.children_user


def _gc_collections() -> list[int]:
    """Cyclic collections so far, per generation (young, middle, full)."""
    return [generation["collections"] for generation in gc.get_stats()]


def measure(fn: Callable[[], Any]) -> Measurement:
    """Run ``fn`` once, measuring real time, user time and peak RSS."""
    user0 = process_user_s()
    real0 = time.perf_counter()
    result = fn()
    real1 = time.perf_counter()
    user1 = process_user_s()
    return Measurement(
        real_seconds=real1 - real0,
        user_seconds=user1 - user0,
        peak_rss_mb=peak_rss_mb(),
        result=result,
    )


def format_table(
    headers: list[str], rows: list[list[str]], title: str = ""
) -> str:
    """Render an aligned text table like the paper's Tables 2-4."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def human_count(n: int) -> str:
    """Counts in the paper's style: 7K, 11232K, 1.3M."""
    if n >= 10_000_000:
        return f"{n / 1_000_000:.1f}M"
    if n >= 1000:
        return f"{n // 1000}K"
    return str(n)


def human_bytes(n: int) -> str:
    if n >= 1_000_000:
        return f"{n / 1_000_000:.1f}MB"
    if n >= 1000:
        return f"{n / 1000:.1f}KB"
    return f"{n}B"


# ---------------------------------------------------------------------------
# Spans and tracing
# ---------------------------------------------------------------------------

#: The open spans, innermost last.  One stack serves the process: the
#: serve daemon runs one request at a time under its session lock, and
#: compile workers are separate processes.
_OPEN: list["Span"] = []
#: Ambient attribute layers (see :class:`ambient`), innermost last.
_AMBIENT: list[dict[str, Any]] = []
_IDS = itertools.count(1)


class Span:
    """One open, named timing region, published on the event bus.

    Entering emits a ``begin`` :class:`~repro.engine.events.SpanEvent`;
    leaving emits the ``end`` record with the wall time, user time,
    peak-RSS growth and cyclic collections per generation across the
    span and its final attributes (plus ``error`` when an exception
    escapes).  ``id`` and ``parent`` place it in the tree of open spans.
    :func:`span` makes one only while a sink listens.
    """

    __slots__ = ("name", "attrs", "id", "parent", "_wall", "_user", "_rss",
                 "_gc")

    def __init__(self, name: str, attrs: dict[str, Any]):
        self.name = name
        self.attrs = attrs

    def annotate(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self.id = next(_IDS)
        self.parent = _OPEN[-1].id if _OPEN else None
        if _AMBIENT:
            merged: dict[str, Any] = {}
            for layer in _AMBIENT:
                merged.update(layer)
            merged.update(self.attrs)
            self.attrs = merged
        _OPEN.append(self)
        self._user = process_user_s()
        self._rss = peak_rss_mb()
        self._gc = _gc_collections()
        # Both records are stamped with the span's own clock readings, so
        # a child's extent always lies inside its parent's.
        self._wall = time.perf_counter()
        EVENTS.emit(SpanEvent(stage=self.name, phase="begin", id=self.id,
                              parent=self.parent, attrs=dict(self.attrs)),
                    at=self._wall)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        end = time.perf_counter()
        user = process_user_s() - self._user
        rss = peak_rss_mb() - self._rss
        collections = [after - before for before, after
                       in zip(self._gc, _gc_collections())]
        if exc_type is not None:
            self.attrs["error"] = repr(exc)
        while _OPEN and _OPEN.pop() is not self:
            pass  # a span entered but never left by hand
        EVENTS.emit(SpanEvent(
            stage=self.name, phase="end", id=self.id, parent=self.parent,
            attrs=self.attrs, wall_s=round(end - self._wall, 6),
            user_s=round(user, 6), rss_delta_mb=round(rss, 3),
            gc_collections=collections,
        ), at=end)


class _NullSpan:
    """What :func:`span` returns while no sink listens: records nothing."""

    __slots__ = ()

    def annotate(self, **attrs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


def span(name: str, **attrs: Any) -> Span | _NullSpan:
    """A named timing region around a ``with`` block::

        with span("link", units=3) as s:
            ...
            s.annotate(objects=12)

    Spans opened inside the block nest under it.  With no sink on
    :data:`~repro.engine.events.EVENTS` this costs one truthiness check
    and keeps nothing; attach a :class:`Tracer` (``--trace``) or a
    :class:`~repro.engine.events.JsonlSink` (``--events``) to see them.
    """
    if EVENTS:
        return Span(name, attrs)
    return _NULL_SPAN


class ambient:
    """Attributes stamped onto every span opened inside the block.

    The serve daemon wraps each request in ``ambient(trace=...)`` so the
    pipeline spans it opens carry the request's trace id without
    threading it through every call.  Explicit span attributes win on a
    key collision; blocks nest, the innermost winning.
    """

    __slots__ = ("_attrs",)

    def __init__(self, **attrs: Any):
        self._attrs = attrs

    def __enter__(self) -> dict[str, Any]:
        _AMBIENT.append(self._attrs)
        return self._attrs

    def __exit__(self, exc_type, exc, tb) -> None:
        # Tolerate exits out of order (mirrors Span's unwind tolerance).
        if self._attrs in _AMBIENT:
            _AMBIENT.remove(self._attrs)


def span_tree(records: Iterable[dict[str, Any]]) -> list[dict[str, Any]]:
    """Assemble flat span records into the schema-v1 trace tree.

    ``records`` are ``stage`` records as a :class:`Tracer` collects them
    or an events ledger holds them; other kinds are skipped.  A span's
    start is its ``begin`` record's ``ts`` (``end`` ts less ``wall_s``
    for a ledger without ids), and every ``start_s`` counts from the
    first span's start.  Returns the roots, children in start order.
    """
    begun: dict[int, float] = {}
    ends: list[dict[str, Any]] = []
    for r in records:
        if r.get("kind") != "stage":
            continue
        if r.get("phase") == "end":
            ends.append(r)
        elif r.get("id") is not None:
            begun[r["id"]] = r.get("ts", 0.0)
    starts = [
        begun.get(r.get("id"), r.get("ts", 0.0) - r.get("wall_s", 0.0))
        for r in ends
    ]
    epoch = min(starts, default=0.0)
    roots: list[dict[str, Any]] = []
    nodes: dict[int, dict[str, Any]] = {}
    # Ids are handed out as spans open, so id order is start order and
    # every parent comes before its children.
    for start, r in sorted(zip(starts, ends),
                           key=lambda pair: pair[1].get("id") or 0):
        node = {
            "name": r.get("stage", "?"),
            "start_s": round(start - epoch, 6),
            "wall_s": r.get("wall_s", 0.0),
            "user_s": r.get("user_s", 0.0),
            "rss_delta_mb": r.get("rss_delta_mb", 0.0),
            "gc_collections": r.get("gc_collections"),
            "attrs": r.get("attrs") or {},
            "children": [],
        }
        parent = nodes.get(r.get("parent"))
        (roots if parent is None else parent["children"]).append(node)
        if r.get("id") is not None:
            nodes[r["id"]] = node
    return roots


class Tracer:
    """An event sink that collects span records into a trace tree.

    Attach it to the bus for a run, then write it (the CLI's
    ``--trace`` does exactly this)::

        with EVENTS.sink(Tracer()) as tracer:
            with span("compile", files=2):
                with span("unit", file="a.c"):
                    ...
        tracer.write("trace.json")

    Tree nodes are the schema-v1 dicts :func:`span_tree` builds.
    """

    def __init__(self) -> None:
        self.records: list[dict[str, Any]] = []

    def handle(self, event) -> None:
        if event.KIND == "stage":
            self.records.append(event.as_record())

    @property
    def roots(self) -> list[dict[str, Any]]:
        return span_tree(self.records)

    # -- export --------------------------------------------------------------

    def to_dict(self, registry: "MetricsRegistry | None" = None) -> dict:
        registry = REGISTRY if registry is None else registry
        return {
            "schema": TRACE_SCHEMA_VERSION,
            "trace": self.roots,
            "counters": registry.snapshot(),
        }

    def write(self, path: str) -> None:
        """Write the trace: a JSON tree, or flat JSONL for ``.jsonl``
        paths (the dispatch docs/OBSERVABILITY.md promises)."""
        if path.endswith(".jsonl"):
            self.write_jsonl(path)
            return
        with open(path, "w") as f:
            f.write(json.dumps(self.to_dict(), indent=2, sort_keys=True))
            f.write("\n")

    def iter_spans(self) -> Iterator[tuple[dict, dict | None]]:
        """Depth-first (span, parent) pairs over the whole trace."""
        stack: list[tuple[dict, dict | None]] = [
            (r, None) for r in reversed(self.roots)
        ]
        while stack:
            node, parent = stack.pop()
            yield node, parent
            for child in reversed(node["children"]):
                stack.append((child, node))

    def write_jsonl(self, path: str) -> None:
        """Flat export: one span per line with id/parent references."""
        ids: dict[int, int] = {}
        with open(path, "w") as f:
            for i, (node, parent) in enumerate(self.iter_spans()):
                ids[id(node)] = i
                record = {k: v for k, v in node.items() if k != "children"}
                record["id"] = i
                record["parent"] = ids[id(parent)] if parent else None
                f.write(json.dumps(record, sort_keys=True))
                f.write("\n")

    def find(self, name: str) -> list[dict]:
        """All spans with this name, depth-first order."""
        return [s for s, _ in self.iter_spans() if s["name"] == name]


TRACE_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Metrics: counters, gauges, histograms
# ---------------------------------------------------------------------------


class Counter:
    """A named monotonic counter.  ``add`` rejects negative increments."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def add(self, n: int = 1) -> int:
        if n < 0:
            raise ValueError(f"counter {self.name!r}: negative add {n}")
        self.value += n
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A named point-in-time value (RSS, uptime, queue lag).

    Unlike :class:`Counter` a gauge moves both ways; ``set`` replaces the
    value outright.  Samplers (e.g. the serve ResourceTicker) overwrite
    the same gauge on every tick.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> float:
        self.value = float(value)
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name!r}, {self.value})"


#: Log-scale latency bounds in seconds: 1/2.5/5 per decade, 100us..10s.
#: Chosen so interactive serve latencies (sub-ms cache hits through
#: multi-second cold re-solves) land in distinct buckets; everything
#: slower falls into the +Inf overflow bucket.
DEFAULT_LATENCY_BOUNDS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005,
    0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05,
    0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)


class Histogram:
    """Fixed-boundary histogram with cumulative-bucket semantics.

    Buckets follow the Prometheus convention: bucket ``i`` counts
    observations ``<= bounds[i]``, plus one overflow (+Inf) bucket, and
    ``count``/``sum``/``max`` ride alongside.  Quantiles are estimated by
    linear interpolation inside the owning bucket (the standard
    ``histogram_quantile`` estimate), capped by the observed max.
    """

    __slots__ = ("name", "labels", "bounds", "buckets", "count", "sum", "max")

    def __init__(
        self,
        name: str,
        bounds: tuple[float, ...] = DEFAULT_LATENCY_BOUNDS,
        labels: tuple[tuple[str, str], ...] = (),
    ):
        if not bounds:
            raise ValueError(f"histogram {name!r}: at least one bound")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"histogram {name!r}: bounds must increase")
        self.name = name
        self.labels = labels
        self.bounds = tuple(float(b) for b in bounds)
        self.buckets = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.max = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        self.buckets[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0 < q <= 1); 0.0 when empty."""
        if self.count == 0:
            return 0.0
        target = q * self.count
        cum = 0
        for i, n in enumerate(self.buckets):
            cum += n
            if n and cum >= target:
                lower = self.bounds[i - 1] if i > 0 else 0.0
                upper = self.bounds[i] if i < len(self.bounds) else self.max
                fraction = (target - (cum - n)) / n
                return min(lower + (upper - lower) * fraction, self.max)
        return self.max  # pragma: no cover - unreachable (cum == count)

    def percentiles(self) -> dict[str, float]:
        """The three quantiles every latency report here uses."""
        return {
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }

    def cumulative(self) -> list[tuple[float, int]]:
        """``(le, cumulative_count)`` pairs, ending with ``(inf, count)``."""
        out: list[tuple[float, int]] = []
        cum = 0
        for bound, n in zip(self.bounds, self.buckets):
            cum += n
            out.append((bound, cum))
        out.append((float("inf"), self.count))
        return out

    def snapshot(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "sum": round(self.sum, 9),
            "max": round(self.max, 9),
            "mean": round(self.mean, 9),
            **{k: round(v, 9) for k, v in self.percentiles().items()},
        }

    def _zero(self) -> None:
        self.buckets = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.max = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name!r}, {dict(self.labels)}, n={self.count})"


class MetricsRegistry:
    """Process-wide registry of counters, gauges and histograms.

    ``reset`` zeroes values *in place* so module-level metric handles
    (e.g. the CLA store's load counters) stay live across resets.
    Histograms are keyed by ``(name, labels)`` so one family (say
    ``serve.request.seconds``) fans out per label set (per op).
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[
            tuple[str, tuple[tuple[str, str], ...]], Histogram
        ] = {}

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = Counter(name)
            self._counters[name] = c
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = Gauge(name)
            self._gauges[name] = g
        return g

    def histogram(
        self,
        name: str,
        bounds: tuple[float, ...] = DEFAULT_LATENCY_BOUNDS,
        **labels: Any,
    ) -> Histogram:
        key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        h = self._histograms.get(key)
        if h is None:
            h = Histogram(name, bounds=bounds, labels=key[1])
            self._histograms[key] = h
        return h

    def snapshot(self, include_zero: bool = False) -> dict[str, int]:
        """Counter values, sorted by name.  By default only nonzero
        counters appear; ``include_zero=True`` returns every registered
        counter (schema-stable output for diffing two runs)."""
        return {
            name: c.value
            for name, c in sorted(self._counters.items())
            if include_zero or c.value
        }

    def gauges(self, include_zero: bool = False) -> dict[str, float]:
        """Gauge values, sorted by name (zero gauges skipped by default)."""
        return {
            name: g.value
            for name, g in sorted(self._gauges.items())
            if include_zero or g.value
        }

    def histograms(self) -> list[Histogram]:
        """Every registered histogram, sorted by (name, labels)."""
        return [self._histograms[k] for k in sorted(self._histograms)]

    def reset(self) -> None:
        for c in self._counters.values():
            c.value = 0
        for g in self._gauges.values():
            g.value = 0.0
        for h in self._histograms.values():
            h._zero()


#: The process-wide registry everything reports into by default.
REGISTRY = MetricsRegistry()
