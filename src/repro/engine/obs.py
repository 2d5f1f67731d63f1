"""Structured observability for the pipeline engine.

The paper's practicality argument rests on being able to *measure* where
analysis time and memory go (§6 reports wall clock, user time and process
size per phase; Table 3's last three columns are load accounting).  This
module is the measurement spine the rest of the system reports through:

* :class:`Span` / :class:`Tracer` — nested, named timing regions.  Every
  span records wall time (:func:`time.perf_counter`), user time
  (:func:`os.times`) and the peak-RSS delta across its extent, plus
  arbitrary attributes (solver name, file counts, solver stats).  Traces
  export as a JSON tree or flat JSONL (see docs/OBSERVABILITY.md for the
  schema).
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

import json
import os
import resource
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

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


@dataclass
class Span:
    """One named timing region; spans nest to form a trace tree."""

    name: str
    attrs: dict[str, Any] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)
    start_wall: float = 0.0
    end_wall: float | None = None
    start_user: float = 0.0
    end_user: float | None = None
    start_rss_mb: float = 0.0
    end_rss_mb: float | None = None

    def begin(self) -> "Span":
        self.start_user = process_user_s()
        self.start_rss_mb = peak_rss_mb()
        self.start_wall = time.perf_counter()
        return self

    def finish(self) -> "Span":
        self.end_wall = time.perf_counter()
        self.end_user = process_user_s()
        self.end_rss_mb = peak_rss_mb()
        return self

    @property
    def closed(self) -> bool:
        return self.end_wall is not None

    @property
    def wall_seconds(self) -> float:
        end = self.end_wall if self.end_wall is not None \
            else time.perf_counter()
        return end - self.start_wall

    @property
    def user_seconds(self) -> float:
        end = self.end_user if self.end_user is not None \
            else process_user_s()
        return end - self.start_user

    @property
    def rss_delta_mb(self) -> float:
        end = self.end_rss_mb if self.end_rss_mb is not None else peak_rss_mb()
        return end - self.start_rss_mb

    def annotate(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    def to_dict(self, epoch: float | None = None) -> dict[str, Any]:
        epoch = self.start_wall if epoch is None else epoch
        return {
            "name": self.name,
            "start_s": round(self.start_wall - epoch, 6),
            "wall_s": round(self.wall_seconds, 6),
            "user_s": round(self.user_seconds, 6),
            "rss_delta_mb": round(self.rss_delta_mb, 3),
            "attrs": dict(self.attrs),
            "children": [c.to_dict(epoch) for c in self.children],
        }


class Tracer:
    """Collects a tree of spans; one per pipeline run (or process).

    Usage::

        tracer = Tracer()
        with tracer.span("compile", files=3):
            with tracer.span("unit", file="a.c"):
                ...
        tracer.write("trace.json")
    """

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self._epoch: float | None = None
        self._ambient: list[dict[str, Any]] = []

    def span(self, name: str, **attrs: Any) -> "_SpanContext":
        """A context manager opening a child span of the current span."""
        return _SpanContext(self, name, attrs)

    def context(self, **attrs: Any) -> "_AmbientContext":
        """Ambient attributes stamped onto every span begun inside.

        The serving layer wraps each request's dispatch in
        ``tracer.context(trace=...)`` so nested pipeline/solver spans all
        carry the request's trace id without threading it through every
        call signature.  Explicit span attributes win on key collision;
        contexts nest (innermost wins among themselves).
        """
        return _AmbientContext(self, attrs)

    @property
    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes to the innermost open span (no-op outside)."""
        if self._stack:
            self._stack[-1].annotate(**attrs)

    def _push(self, span: Span) -> Span:
        if self._ambient:
            merged: dict[str, Any] = {}
            for layer in self._ambient:
                merged.update(layer)
            merged.update(span.attrs)
            span.attrs = merged
        span.begin()
        if self._epoch is None:
            self._epoch = span.start_wall
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        return span

    def _pop(self, span: Span) -> None:
        span.finish()
        # Tolerate exceptions unwinding several frames at once.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break

    # -- export --------------------------------------------------------------

    def to_dict(self, registry: "MetricsRegistry | None" = None) -> dict:
        registry = REGISTRY if registry is None else registry
        return {
            "schema": TRACE_SCHEMA_VERSION,
            "trace": [r.to_dict(self._epoch) for r in self.roots],
            "counters": registry.snapshot(),
        }

    def to_json(self, registry: "MetricsRegistry | None" = None) -> str:
        return json.dumps(self.to_dict(registry), indent=2, sort_keys=True)

    def write(self, path: str) -> None:
        """Write the trace: a JSON tree, or flat JSONL for ``.jsonl``
        paths (the dispatch docs/OBSERVABILITY.md promises)."""
        if path.endswith(".jsonl"):
            self.write_jsonl(path)
            return
        with open(path, "w") as f:
            f.write(self.to_json())
            f.write("\n")

    @property
    def total_wall_s(self) -> float:
        """Wall clock covered by the trace: first span start to last span
        end (open spans count up to now).  0.0 for an empty trace."""
        if not self.roots:
            return 0.0
        start = min(r.start_wall for r in self.roots)
        end = max(
            r.end_wall if r.end_wall is not None else time.perf_counter()
            for r in self.roots
        )
        return end - start

    def iter_spans(self) -> Iterator[tuple[Span, Span | None]]:
        """Depth-first (span, parent) pairs over the whole trace."""
        stack: list[tuple[Span, Span | None]] = [
            (r, None) for r in reversed(self.roots)
        ]
        while stack:
            span, parent = stack.pop()
            yield span, parent
            for child in reversed(span.children):
                stack.append((child, span))

    def write_jsonl(self, path: str) -> None:
        """Flat export: one span per line with id/parent references."""
        ids: dict[int, int] = {}
        with open(path, "w") as f:
            for i, (span, parent) in enumerate(self.iter_spans()):
                ids[id(span)] = i
                record = span.to_dict(self._epoch)
                record.pop("children")
                record["id"] = i
                record["parent"] = ids.get(id(parent)) if parent else None
                f.write(json.dumps(record, sort_keys=True))
                f.write("\n")

    def find(self, name: str) -> list[Span]:
        """All spans with this name, depth-first order."""
        return [s for s, _ in self.iter_spans() if s.name == name]


class _SpanContext:
    __slots__ = ("_tracer", "_name", "_attrs", "span")

    def __init__(self, tracer: Tracer, name: str, attrs: dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self.span: Span | None = None

    def __enter__(self) -> Span:
        self.span = self._tracer._push(Span(self._name, dict(self._attrs)))
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.span.annotate(error=repr(exc))
        self._tracer._pop(self.span)


class _AmbientContext:
    __slots__ = ("_tracer", "_attrs")

    def __init__(self, tracer: Tracer, attrs: dict[str, Any]):
        self._tracer = tracer
        self._attrs = attrs

    def __enter__(self) -> dict[str, Any]:
        self._tracer._ambient.append(self._attrs)
        return self._attrs

    def __exit__(self, exc_type, exc, tb) -> None:
        # Tolerate exits out of order (mirrors _pop's unwind tolerance).
        if self._attrs in self._tracer._ambient:
            self._tracer._ambient.remove(self._attrs)


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
