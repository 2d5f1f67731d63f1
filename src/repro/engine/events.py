"""The run ledger: a typed event stream out of the solve loop.

Spans (:mod:`repro.engine.obs`) answer *where the time went*; counters
answer *how much work was done*.  Neither shows the inside of the fixpoint
— the paper's §5 convergence behaviour (edges per round, the lval cache
warming up as the iteration converges) and §4 load behaviour (block-cache
pressure over time) are invisible in end-of-run totals.  This module makes
them observable data:

* typed events — :class:`SolverRoundEvent` (one per fixpoint round, with
  per-round deltas), :class:`SolverBeginEvent`/:class:`SolverEndEvent`,
  :class:`SpanEvent` (the begin and end of every
  :func:`~repro.engine.obs.span`),
  :class:`UnitCompiledEvent` (per-translation-unit compile completion),
  and the CLA pressure events :class:`BlockLoadEvent` /
  :class:`BlockReloadEvent` / :class:`BlockEvictEvent`;
* :class:`EventBus` — the process-wide publisher (:data:`EVENTS`).
  Emission is opt-in: with no sinks attached the bus is falsy and every
  producer guards with ``if EVENTS:``, so the off-path costs one
  truthiness check (the ``bench_scaling`` suite asserts this adds no
  measurable overhead);
* pluggable sinks — :class:`MemorySink` (tests), :class:`JsonlSink`
  (the CLI's ``--events out.jsonl``), :class:`ProgressSink` (the CLI's
  ``--progress`` live stderr renderer); :class:`~repro.engine.obs.Tracer`
  (the CLI's ``--trace``) is one more.

Schema (v1): each JSONL record is flat — ``{"kind": ..., "ts": ...,
<event fields>}`` — with a ``{"kind": "events.header", "schema": 1}``
first line.  ``ts`` is seconds since the first event on the bus.  See
docs/OBSERVABILITY.md § "Event stream".
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Any, ClassVar, Iterator, Protocol, TextIO

EVENTS_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Event types
# ---------------------------------------------------------------------------


class Event:
    """Base for all ledger events.  Subclasses set ``KIND`` and are
    dataclasses; ``ts`` (seconds since the bus epoch) is stamped by the
    bus at emit time."""

    KIND: ClassVar[str] = "event"

    def as_record(self) -> dict[str, Any]:
        """The flat JSONL record: ``kind`` plus every dataclass field."""
        record: dict[str, Any] = {"kind": self.KIND}
        for f in fields(self):  # type: ignore[arg-type]
            record[f.name] = getattr(self, f.name)
        return record


@dataclass(slots=True)
class SpanEvent(Event):
    """A span opened (``phase="begin"``) or closed (``"end"``).

    ``id`` and ``parent`` place the span in its tree.  End records carry
    the span's wall time, user time, peak-RSS growth, the cyclic
    collections per generation made while it was open, and its final
    attributes, so a ledger alone rebuilds the trace tree."""

    KIND: ClassVar[str] = "stage"

    stage: str = ""  # the span's name
    phase: str = "begin"  # "begin" | "end"
    id: int = 0
    parent: int | None = None
    attrs: dict[str, Any] | None = None
    wall_s: float = 0.0
    user_s: float = 0.0
    rss_delta_mb: float = 0.0
    #: [young, middle, full]; end records only
    gc_collections: list[int] | None = None
    ts: float = 0.0


@dataclass(slots=True)
class UnitCompiledEvent(Event):
    """One translation unit finished compiling (serial or parallel)."""

    KIND: ClassVar[str] = "compile.unit"

    file: str = ""
    index: int = 0  # completion order, 1-based
    total: int = 0
    assignments: int = 0
    objects: int = 0
    ts: float = 0.0


@dataclass(slots=True)
class SolverBeginEvent(Event):
    """A solver started; ``in_file`` sizes the workload."""

    KIND: ClassVar[str] = "solver.begin"

    solver: str = ""
    in_file: int = 0
    ts: float = 0.0


@dataclass(slots=True)
class SolverRoundEvent(Event):
    """One fixpoint round: the §5 convergence curve, one point at a time.

    All ``*`` fields are per-round deltas; ``constraints`` and
    ``blocks_loaded`` are running totals.  For the worklist solvers a
    "round" is a batch of worklist pops (the bus would drown in
    per-pop events); for the iterative solvers it is a literal outer
    round."""

    KIND: ClassVar[str] = "solver.round"

    solver: str = ""
    round: int = 0
    edges_added: int = 0
    delta_lvals: int = 0  # (constraint, lval) pairs turned into edge adds
    lval_cache_hits: int = 0
    lval_cache_misses: int = 0
    cache_hit_rate: float = 0.0  # hits / (hits + misses) this round
    cycles_collapsed: int = 0
    nodes_visited: int = 0
    constraints: int = 0  # running total of complex assignments
    blocks_loaded: int = 0  # running total of demand-loaded blocks
    ts: float = 0.0


@dataclass(slots=True)
class SolverEndEvent(Event):
    """A solver finished; ``stats`` is the full uniform SolverStats dict."""

    KIND: ClassVar[str] = "solver.end"

    solver: str = ""
    rounds: int = 0
    stats: dict[str, Any] | None = None
    ts: float = 0.0


@dataclass(slots=True)
class BlockLoadEvent(Event):
    """First-time materialisation of CLA content (pressure totals)."""

    KIND: ClassVar[str] = "cla.load"

    assignments: int = 0
    blocks: int = 0
    in_core: int = 0
    loaded: int = 0
    reloads: int = 0
    ts: float = 0.0


@dataclass(slots=True)
class BlockReloadEvent(Event):
    """A discard-and-reload re-read (§4): real I/O, no new coverage."""

    KIND: ClassVar[str] = "cla.reload"

    assignments: int = 0
    blocks: int = 0
    in_core: int = 0
    loaded: int = 0
    reloads: int = 0
    ts: float = 0.0


@dataclass(slots=True)
class BlockEvictEvent(Event):
    """The block cache discarded a retained block to stay in budget."""

    KIND: ClassVar[str] = "cla.evict"

    block: str = ""
    assignments: int = 0
    in_core: int = 0
    evictions: int = 0
    ts: float = 0.0


@dataclass(slots=True)
class ServeQueryEvent(Event):
    """One query answered by the serve daemon (warm-fixpoint API)."""

    KIND: ClassVar[str] = "serve.query"

    op: str = ""  # points-to | alias | chain | stats | ...
    trace: str = ""  # request trace id (client-supplied id or generated)
    solver: str = ""
    generation: int = 0  # database generation the answer came from
    cache_hit: bool = False
    ok: bool = True
    wall_ms: float = 0.0
    ts: float = 0.0


@dataclass(slots=True)
class ServeSlowQueryEvent(Event):
    """A serve request exceeded the daemon's ``--slow-query-ms`` budget.

    Emitted *in addition to* the request's ``serve.query`` record so a
    ledger consumer can alert on the slow stream alone; the daemon also
    keeps the most recent slow requests in its in-memory slow-query log
    (readable via the ``traces`` op)."""

    KIND: ClassVar[str] = "serve.slow_query"

    op: str = ""
    trace: str = ""
    solver: str = ""
    generation: int = 0
    cache_hit: bool = False
    ok: bool = True
    wall_ms: float = 0.0
    threshold_ms: float = 0.0
    ts: float = 0.0


@dataclass(slots=True)
class ServeReloadEvent(Event):
    """The serve daemon solved a new generation (startup, update or
    reload).  Every generation is solved from scratch; the generation
    bumped, so every older query-cache entry is unreachable."""

    KIND: ClassVar[str] = "serve.reload"

    generation: int = 0
    solver: str = ""
    compiled: int = 0  # units recompiled by the workspace build
    reused: int = 0  # units served from the content-keyed cache
    certified: bool = False  # the checker oracle passed the fixpoint
    wall_s: float = 0.0
    ts: float = 0.0


@dataclass(slots=True)
class CheckViolationEvent(Event):
    """The soundness oracle found a constraint the result does not close."""

    KIND: ClassVar[str] = "checker.violation"

    solver: str = ""
    rule: str = ""  # addr | copy | store | load | store-load | call-arg | ...
    pointer: str = ""  # the object whose points-to set is deficient
    missing: int = 0  # how many required targets are absent
    assignment: str = ""  # rendered source form of the violated constraint
    location: str = ""
    ts: float = 0.0


@dataclass(slots=True)
class FuzzCaseEvent(Event):
    """One differential-fuzz iteration finished (ok or failed)."""

    KIND: ClassVar[str] = "checker.fuzz.case"

    iteration: int = 0
    seed: int = 0
    profile: str = ""
    field_based: bool = True
    config: str = ""  # the pretransitive toggle combination exercised
    assignments: int = 0
    ok: bool = True
    failures: int = 0
    ts: float = 0.0


@dataclass(slots=True)
class ShrinkStepEvent(Event):
    """The delta debugger reduced the failing program (one ddmin win)."""

    KIND: ClassVar[str] = "checker.shrink.step"

    stage: str = ""  # "files" | "lines"
    remaining: int = 0  # items still in the failing configuration
    tests: int = 0  # predicate runs so far (running total)
    ts: float = 0.0


# ---------------------------------------------------------------------------
# The bus
# ---------------------------------------------------------------------------


class EventSink(Protocol):
    def handle(self, event: Event) -> None: ...


class EventBus:
    """Publisher with pluggable sinks.

    Falsy when no sinks are attached — producers guard hot-path emission
    with ``if EVENTS:`` so the disabled cost is one truthiness check.
    Sink exceptions propagate: a broken ``--events`` file should fail the
    run, not silently drop the ledger.
    """

    def __init__(self) -> None:
        self._sinks: list[EventSink] = []
        self._epoch: float | None = None

    def __bool__(self) -> bool:
        return bool(self._sinks)

    def add_sink(self, sink: EventSink) -> EventSink:
        self._sinks.append(sink)
        return sink

    def remove_sink(self, sink: EventSink) -> None:
        try:
            self._sinks.remove(sink)
        except ValueError:
            pass

    @contextmanager
    def sink(self, sink: EventSink) -> Iterator[EventSink]:
        """Attach ``sink`` for the duration of a ``with`` block."""
        self.add_sink(sink)
        try:
            yield sink
        finally:
            self.remove_sink(sink)

    def emit(self, event: Event, at: float | None = None) -> None:
        """Stamp ``event`` and hand it to every sink.  ``at`` is the
        :func:`time.perf_counter` reading the event happened at, when
        that is not now (a span stamps its records with its own clock)."""
        if not self._sinks:
            return
        now = time.perf_counter() if at is None else at
        if self._epoch is None:
            self._epoch = now
        event.ts = round(now - self._epoch, 6)
        for sink in list(self._sinks):
            sink.handle(event)


#: The process-wide bus every producer publishes to (mirrors
#: ``obs.REGISTRY``: one spine, many attachable consumers).
EVENTS = EventBus()


# ---------------------------------------------------------------------------
# Sinks
# ---------------------------------------------------------------------------


class MemorySink:
    """Collects events in order; the test-suite sink.

    ``maxlen`` bounds the sink to a ring of the most recent events so a
    long-lived daemon with an attached sink cannot grow without limit
    (the default, ``None``, keeps everything — test behaviour unchanged).
    ``self.events`` stays a plain list either way.
    """

    def __init__(self, maxlen: int | None = None) -> None:
        if maxlen is not None and maxlen < 1:
            raise ValueError(f"MemorySink maxlen must be >= 1, got {maxlen}")
        self.maxlen = maxlen
        self.dropped = 0  # events trimmed off the front so far
        self.events: list[Event] = []

    def handle(self, event: Event) -> None:
        self.events.append(event)
        if self.maxlen is not None and len(self.events) > self.maxlen:
            excess = len(self.events) - self.maxlen
            del self.events[:excess]
            self.dropped += excess

    def of_kind(self, kind: str) -> list[Event]:
        return [e for e in self.events if e.KIND == kind]

    def kinds(self) -> list[str]:
        return [e.KIND for e in self.events]


class JsonlSink:
    """One JSON record per event (the ``--events out.jsonl`` sink).

    The first line is a header record carrying the schema version, so a
    reader can validate before streaming the rest.  Every record is
    flushed as it is written: the ledger of a long-lived daemon must be
    tailable (``tail -f events.jsonl``) while the process is still up,
    not only after a clean shutdown.
    """

    def __init__(self, path: str):
        self.path = path
        self._f: TextIO | None = open(path, "w", encoding="utf-8")
        self._f.write(json.dumps(
            {"kind": "events.header", "schema": EVENTS_SCHEMA_VERSION},
            sort_keys=True,
        ))
        self._f.write("\n")
        self._f.flush()

    def handle(self, event: Event) -> None:
        if self._f is None:
            return
        self._f.write(json.dumps(event.as_record(), sort_keys=True,
                                 default=str))
        self._f.write("\n")
        self._f.flush()

    def close(self) -> None:
        if self._f is not None:
            self._f.close()
            self._f = None


def read_events(path: str) -> list[dict[str, Any]]:
    """Parse an events.jsonl back into records, validating the header.

    Raises :class:`ValueError` for anything that is not a schema-matched
    ledger — including an empty or truncated-to-nothing file, which has
    no header to validate."""
    records: list[dict[str, Any]] = []
    saw_header = False
    with open(path, "r", encoding="utf-8") as f:
        for i, line in enumerate(f):
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if i == 0:
                if record.get("kind") != "events.header":
                    raise ValueError(
                        f"{path}: not an events.jsonl (no header record)"
                    )
                schema = record.get("schema")
                if schema != EVENTS_SCHEMA_VERSION:
                    raise ValueError(
                        f"{path}: unsupported events schema {schema!r} "
                        f"(expected {EVENTS_SCHEMA_VERSION})"
                    )
                saw_header = True
                continue
            records.append(record)
    if not saw_header:
        raise ValueError(f"{path}: not an events.jsonl (empty file)")
    return records


class ProgressSink:
    """Live progress renderer (the ``--progress`` sink).

    Keeps a one-line view of the run — phase, compiled units, solver
    round, edges added, lval-cache hit rate, blocks loaded — rewritten in
    place on a TTY, line-per-update otherwise.  High-frequency CLA
    pressure events are throttled to ``min_interval`` seconds; round and
    stage boundaries always render.  Of the spans, only the pipeline
    stages in :attr:`STAGES` render.
    """

    STAGES = ("compile", "link", "analyze", "depend")

    def __init__(self, stream: TextIO | None = None,
                 min_interval: float = 0.1):
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self._isatty = bool(getattr(self.stream, "isatty", lambda: False)())
        # -inf, not 0.0: time.monotonic() counts from an arbitrary epoch
        # (boot on Linux), so 0.0 would throttle the first event on a
        # freshly booted machine.
        self._last_render = float("-inf")
        # run state
        self._stage = ""
        self._units_done = 0
        self._units_total = 0
        self._edges_total = 0
        self._blocks_loaded = 0

    # -- event intake --------------------------------------------------------

    def handle(self, event: Event) -> None:
        kind = event.KIND
        if kind == "stage":
            if event.stage in self.STAGES:
                self._on_stage(event)
        elif kind == "compile.unit":
            self._units_done = event.index
            self._units_total = event.total
            self._render(
                f"[compile] {self._units_done}/{self._units_total} units "
                f"({event.file})"
            )
        elif kind == "solver.begin":
            self._edges_total = 0
            self._render(
                f"[analyze {event.solver}] "
                f"{event.in_file} assignments in file"
            )
        elif kind == "solver.round":
            self._edges_total += event.edges_added
            self._render(
                f"[analyze {event.solver}] round {event.round}: "
                f"edges +{event.edges_added} ({self._edges_total} total), "
                f"lvals +{event.delta_lvals}, "
                f"cache {event.cache_hit_rate:.1%}, "
                f"cycles +{event.cycles_collapsed}, "
                f"blocks {event.blocks_loaded}"
            )
        elif kind == "solver.end":
            self._render(
                f"[analyze {event.solver}] done in {event.rounds} rounds",
                final=True,
            )
        elif kind in ("cla.load", "cla.reload"):
            self._blocks_loaded += event.blocks
            self._render(
                f"[{self._stage or 'load'}] blocks loaded "
                f"{self._blocks_loaded}, in core {event.in_core}, "
                f"reloads {event.reloads}",
                throttled=True,
            )
        elif kind == "cla.evict":
            self._render(
                f"[{self._stage or 'load'}] evicted {event.block} "
                f"({event.assignments} assignments), "
                f"in core {event.in_core}",
                throttled=True,
            )
        elif kind == "serve.query":
            hit = "hit" if event.cache_hit else "miss"
            self._render(
                f"[serve] {event.op} (gen {event.generation}, {hit}) "
                f"{event.wall_ms:.2f}ms",
                throttled=True,
            )
        elif kind == "serve.slow_query":
            # Never throttled: slow queries are the ones worth seeing.
            self._render(
                f"[serve] SLOW {event.op} (gen {event.generation}, "
                f"trace {event.trace}) {event.wall_ms:.2f}ms "
                f"> {event.threshold_ms:.0f}ms budget",
                final=True,
            )
        elif kind == "serve.reload":
            self._render(
                f"[serve] reload -> gen {event.generation} "
                f"({event.compiled} compiled, "
                f"{event.reused} reused) in {event.wall_s:.2f}s",
                final=True,
            )

    def _on_stage(self, event: SpanEvent) -> None:
        if event.phase == "begin":
            self._stage = event.stage
            self._render(f"[{event.stage}] ...")
        else:
            self._render(
                f"[{event.stage}] done in {event.wall_s:.2f}s", final=True
            )

    # -- rendering -----------------------------------------------------------

    def _render(self, line: str, final: bool = False,
                throttled: bool = False) -> None:
        now = time.monotonic()
        if throttled and not final \
                and now - self._last_render < self.min_interval:
            return
        self._last_render = now
        if self._isatty:
            # Rewrite in place; pad over the previous line's tail.
            self.stream.write("\r" + line.ljust(79))
            if final:
                self.stream.write("\n")
        else:
            self.stream.write(line + "\n")
        self.stream.flush()
