"""The serve daemon's warm state: one solved fixpoint, queried many times.

:class:`ServeSession` is the paper's deployed-tool shape (§1: the analysis
ran behind an interactive dependence browser at Lucent): solve once, then
answer ``points-to`` / ``alias`` / ``chain`` queries from the in-memory
result at interactive latency.  Three properties matter and are owned
here:

* **Warm queries.**  The interned universe, points-to bitmasks and the
  store stay resident between requests; repeated queries hit a bounded
  LRU (:class:`~repro.serve.cache.QueryCache`) keyed on the full query
  identity *including the database generation*.
* **Incremental builds, whole solves.**  An ``update`` request
  recompiles only the changed unit (the
  :class:`~repro.driver.incremental.Workspace` holds every other one,
  and the one an undo returns to), relinks the held units in memory,
  block by block, and solves that store exactly as startup does: one
  sequential :meth:`Pipeline.analyze`.  No database is written or
  reopened on the way.  The session decides only
  *when* to solve, never *how*, so every served fixpoint is the one a
  cold solve of a fresh workspace computes.
* **An undo solves nothing.**  In workspace mode the session keeps the
  generation its last load replaced.  A load whose units are, object for
  object, the ones the serving or the kept generation was linked from
  serves that generation again: a held
  :class:`~repro.cla.store.UnitStore` never changes, so the same units
  link to the same store and solve to the same fixpoint.
* **No stale answers.**  Every successful reload bumps ``generation``;
  cache keys lead with the generation, so entries from a previous
  database can never be *looked up*, let alone served.  With
  ``certify=True`` every solved fixpoint is validated by the checker
  oracle before it is served and, in workspace mode, compared with a
  cold solve of the generation's written database; a rejection raises
  :class:`CertificationError` instead of serving.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from ..checker import check_result
from ..cla.store import ConstraintStore, LinkError, UnitStore, simple_name_of
from ..depend.chains import render_all, summarize
from ..driver.incremental import Workspace
from ..engine.events import (
    EVENTS,
    ServeQueryEvent,
    ServeReloadEvent,
    ServeSlowQueryEvent,
)
from ..engine.obs import REGISTRY, Histogram, ambient
from ..engine.pipeline import BuildError, Pipeline
from ..engine.prom import CONTENT_TYPE, render_prometheus
from ..ir.strength import Strength
from ..solvers import SOLVERS
from ..solvers.base import PointsToResult
from .cache import QueryCache
from .telemetry import TraceRing

_QUERIES = REGISTRY.counter("serve.queries")
_ERRORS = REGISTRY.counter("serve.errors")
_SLOW = REGISTRY.counter("serve.slow_queries")
_RELOADS_SOLVED = REGISTRY.counter("serve.reloads.solved")
_RELOADS_REUSED = REGISTRY.counter("serve.reloads.reused")
_RELOADS_FAILED = REGISTRY.counter("serve.reloads.failed")

#: The process-wide latency family ``GET /metrics`` scrapes, one
#: histogram per op label.
REQUEST_SECONDS = "serve.request.seconds"

#: Largest payload the daemon takes in (16 MiB): a ``POST /query`` body,
#: and the UTF-8 size of an ``update``'s ``text`` on either transport.
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Ops whose results are pure functions of (database generation, args).
CACHEABLE_OPS = frozenset({"points-to", "alias", "chain"})

#: Every op :meth:`ServeSession.request` understands.  A daemon also
#: accepts ``shutdown``, a transport concern handled in
#: :mod:`repro.serve.protocol`.
KNOWN_OPS = ("alias", "chain", "metrics", "ping", "points-to", "reload",
             "stats", "traces", "update")

#: Telemetry backlog bound: with the event ledger off, per-request
#: accounting is deferred and folded in batches of at most this many
#: envelopes (every read of stats/metrics/traces/health drains first).
PENDING_DRAIN = 512


class ServeError(Exception):
    """A client-side error: malformed arguments, unknown op, update
    against a database-mode session.  Reported in the response envelope;
    never tears down the daemon."""


class CertificationError(RuntimeError):
    """Certification failure: the checker oracle rejected a solved
    fixpoint, or the in-memory and database routes disagree.  This is a
    bug, not a client error — it propagates and stops the daemon rather
    than risk serving a wrong fixpoint."""


@dataclass(slots=True, eq=False)
class _Generation:
    """A solved fixpoint as the session serves it: the store, its result
    and, in workspace mode, the held units it was linked from, compared
    by identity.  Under ``certify`` it passed certification before it
    was first served."""

    store: ConstraintStore
    result: PointsToResult
    units: list[UnitStore] | None

    def built_from(self, units: list[UnitStore]) -> bool:
        mine = self.units
        return mine is not None and len(mine) == len(units) and all(
            a is b for a, b in zip(mine, units))


@dataclass(slots=True)
class _OpStats:
    """Per-op latency/hit-rate accounting for the ``stats`` payload.

    Latency lives in a log-scale :class:`~repro.engine.obs.Histogram`
    (the same metric the process registry exposes on ``/metrics``)
    rather than the old count/total/max trio, so the ``stats`` op
    reports real p50/p90/p99 per op for this session."""

    count: int = 0
    cache_hits: int = 0
    errors: int = 0
    #: Session-scoped instance of the same metric family the process
    #: registry scrapes — ``stats`` reports this session only, while the
    #: drain also feeds the process-wide ``serve.request.seconds``.
    hist: Histogram = field(
        default_factory=lambda: Histogram(REQUEST_SECONDS)
    )

    def record(self, wall_ms: float, cache_hit: bool, ok: bool) -> None:
        self.count += 1
        self.cache_hits += cache_hit
        self.errors += not ok
        self.hist.observe(wall_ms / 1000.0)

    def payload(self) -> dict:
        pct = self.hist.percentiles()
        return {
            "count": self.count,
            "cache_hits": self.cache_hits,
            "errors": self.errors,
            "mean_ms": round(self.hist.mean * 1000.0, 3),
            "p50_ms": round(pct["p50"] * 1000.0, 3),
            "p90_ms": round(pct["p90"] * 1000.0, 3),
            "p99_ms": round(pct["p99"] * 1000.0, 3),
            "max_ms": round(self.hist.max * 1000.0, 3),
        }


def _freeze(value):
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    return value


def _canonical_args(params: dict) -> tuple:
    try:
        return tuple(sorted((k, _freeze(v)) for k, v in params.items()))
    except TypeError as exc:
        raise ServeError(f"unhashable query argument: {exc}") from None
    except RecursionError:
        raise ServeError("query arguments nest too deeply") from None


class ServeSession:
    """Warm fixpoint + query dispatch for the serve daemon.

    Exactly one of ``workspace`` (incremental mode: ``update`` supported)
    or ``database`` (a linked ``.cla`` path; read-only apart from
    ``reload``) must be given.  Construction performs the initial build
    and cold solve, so a constructed session is ready to answer queries.

    Thread-safe: one re-entrant lock serialises requests, which is what a
    shared mutable fixpoint wants — queries are sub-millisecond against
    the warm result, and reloads must be exclusive anyway.
    """

    def __init__(
        self,
        workspace: Workspace | None = None,
        database: str | None = None,
        solver: str = "pretransitive",
        cache_entries: int = 1024,
        certify: bool = False,
        slow_query_ms: float | None = None,
        trace_ring: int = 256,
    ):
        if (workspace is None) == (database is None):
            raise ValueError("exactly one of workspace/database is required")
        if solver not in SOLVERS:
            known = ", ".join(sorted(SOLVERS))
            raise ValueError(f"unknown solver {solver!r} (known: {known})")
        self.solver = solver
        self._solver_cls = SOLVERS[solver]
        self.certify = certify
        self.workspace = workspace
        self.database_path = database
        self.pipeline = (
            workspace.pipeline if workspace is not None else Pipeline()
        )
        self.generation = 0
        self.reloads = {"solved": 0, "reused": 0, "certified": 0,
                        "failed": 0}
        self.slow_query_ms = slow_query_ms
        self._cache = QueryCache(cache_entries)
        self._latency: dict[str, _OpStats] = {}
        self._pending: list[dict] = []
        # trace_ring == 0 disables request tracing entirely: both the
        # recent-trace ring and the slow-query log keep nothing (the
        # slow log is otherwise capped at 64 entries).
        self._traces = TraceRing(trace_ring)
        self._slow_log = TraceRing(min(trace_ring, 64) if trace_ring else 0)
        self._trace_seq = 0
        self._started_monotonic = time.monotonic()
        self._last_reload: dict | None = None
        self._last_failure: dict | None = None
        self._lock = threading.RLock()
        #: the serving generation, whose store and result the query ops
        #: read through the two aliases below it
        self._serving: _Generation | None = None
        self._store: ConstraintStore | None = None
        self._result: PointsToResult | None = None
        #: workspace mode: the generation the last load replaced, until a
        #: load that neither it nor the serving one was linked from
        self._kept: _Generation | None = None
        self._load()

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            self._drain_telemetry()
            for generation in (self._serving, self._kept):
                if generation is not None:
                    generation.store.close()
            self._serving = self._kept = None
            self._store = self._result = None

    def __enter__(self) -> "ServeSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the one entry point -------------------------------------------------

    def request(
        self, op: str, params: dict | None = None,
        trace: str | None = None,
    ) -> dict:
        """Serve one request; returns the response envelope (sans ``id``).

        Client errors (:class:`ServeError`, and the :class:`BuildError` or
        :class:`LinkError` of an edit that does not build) become
        ``{"ok": false, "error": ...}`` responses; anything else is a
        daemon bug and propagates.  Latency and hit-rate are recorded per
        op and a ``serve.query`` event is emitted either way.

        ``trace`` is the request's trace id (the transports pass the
        client-supplied request ``id``); one is generated when absent.
        The id rides on the response envelope, the ``serve.query`` event,
        the recent-trace ring, and — as an ambient span attribute while a
        sink listens — every span the request opens.
        """
        params = params or {}
        started = time.perf_counter()
        ok, cache_hit, error = True, False, None
        result: dict | None = None
        with self._lock:
            if trace is None:
                self._trace_seq += 1
                trace = f"t{self._trace_seq}"
            try:
                if not isinstance(params, dict):
                    raise ServeError("params must be a JSON object")
                if op in CACHEABLE_OPS:
                    key = (self.generation, op, _canonical_args(params))
                    result = self._cache.get(key)
                    if result is not None:
                        cache_hit = True
                    else:
                        result = self._dispatch(op, params, trace)
                        self._cache.put(key, result)
                elif op in KNOWN_OPS:
                    result = self._dispatch(op, params, trace)
                else:
                    known = ", ".join(KNOWN_OPS)
                    raise ServeError(f"unknown op {op!r} (known: {known})")
            except (ServeError, BuildError, LinkError) as exc:
                ok, error = False, str(exc)
            wall_ms = (time.perf_counter() - started) * 1000.0
            response = {
                "ok": ok,
                "op": op,
                "trace": trace,
                "generation": self.generation,
                "cache_hit": cache_hit,
                "wall_ms": round(wall_ms, 3),
            }
            if ok:
                response["result"] = result
            else:
                response["error"] = error
            self._record(response)
        return response

    def _record(self, response: dict) -> None:
        """Hot-path half of per-request telemetry: enqueue and move on.

        The response envelope already carries every field telemetry
        needs, so the per-request cost is one list append plus the drain
        checks — the <5% overhead guard in bench_serve measures exactly
        this seam.  Folding into the histograms, counters, trace ring,
        slow-query log and event ledger happens in
        :meth:`_drain_telemetry`: immediately when the ledger is on
        (events must interleave with the requests that caused them) or a
        slow query fires, else on the next telemetry read or when the
        backlog reaches :data:`PENDING_DRAIN`.  Callers hold the session
        lock."""
        self._pending.append(response)
        if (EVENTS or len(self._pending) >= PENDING_DRAIN
                or (self.slow_query_ms is not None
                    and response["wall_ms"] >= self.slow_query_ms)):
            self._drain_telemetry()

    def _drain_telemetry(self) -> None:
        """Fold every pending envelope into the aggregates (under the
        session lock): per-op stats, the process-wide latency family,
        process counters, the recent-trace ring, the slow-query log, and
        the ``serve.query`` / ``serve.slow_query`` ledger events."""
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        for response in pending:
            op = response["op"]
            ok = response["ok"]
            cache_hit = response["cache_hit"]
            wall_ms = response["wall_ms"]
            stats = self._latency.get(op)
            if stats is None:
                stats = self._latency[op] = _OpStats()
            stats.record(wall_ms, cache_hit, ok)
            REGISTRY.histogram(REQUEST_SECONDS, op=op).observe(
                wall_ms / 1000.0
            )
            _QUERIES.add()
            if not ok:
                _ERRORS.add()
            record = {
                "trace": response["trace"],
                "op": op,
                "generation": response["generation"],
                "cache_hit": cache_hit,
                "ok": ok,
                "wall_ms": wall_ms,
            }
            if not ok:
                record["error"] = response.get("error")
            self._traces.append(record)
            slow = (self.slow_query_ms is not None
                    and wall_ms >= self.slow_query_ms)
            if slow:
                _SLOW.add()
                self._slow_log.append(
                    dict(record, threshold_ms=self.slow_query_ms)
                )
            if EVENTS:
                EVENTS.emit(ServeQueryEvent(
                    op=op, trace=record["trace"], solver=self.solver,
                    generation=record["generation"], cache_hit=cache_hit,
                    ok=ok, wall_ms=wall_ms,
                ))
                if slow:
                    EVENTS.emit(ServeSlowQueryEvent(
                        op=op, trace=record["trace"], solver=self.solver,
                        generation=record["generation"], cache_hit=cache_hit,
                        ok=ok, wall_ms=wall_ms,
                        threshold_ms=self.slow_query_ms,
                    ))

    def flush_telemetry(self) -> None:
        """Drain deferred per-request accounting into the registry.  The
        HTTP ``/metrics`` route calls this before rendering, since the
        scrape reads the process registry without going through an op."""
        with self._lock:
            self._drain_telemetry()

    def _dispatch(self, op: str, params: dict, trace: str) -> dict:
        handler = getattr(self, "_op_" + op.replace("-", "_"))
        if not EVENTS:
            return handler(params)
        with ambient(trace=trace):
            return handler(params)

    # -- query ops -----------------------------------------------------------

    def _op_ping(self, params: dict) -> dict:
        return {"pong": True, "solver": self.solver,
                "generation": self.generation}

    def _op_stats(self, params: dict) -> dict:
        self._drain_telemetry()
        return {
            "solver": self.solver,
            "generation": self.generation,
            "mode": "workspace" if self.workspace is not None else "database",
            "certify": self.certify,
            "uptime_s": round(
                time.monotonic() - self._started_monotonic, 3
            ),
            "slow_query_ms": self.slow_query_ms,
            "pointer_variables": self._result.pointer_variables(),
            "points_to_relations": self._result.points_to_relations(),
            "queries": {
                op: stats.payload()
                for op, stats in sorted(self._latency.items())
            },
            "query_cache": self._cache.stats(),
            "reloads": dict(self.reloads),
            "last_failure": self._with_age(self._last_failure),
        }

    def _op_metrics(self, params: dict) -> dict:
        """The whole process registry as a Prometheus scrape body — the
        stdio equivalent of ``GET /metrics``."""
        self._drain_telemetry()
        return {
            "content_type": CONTENT_TYPE,
            "text": render_prometheus(REGISTRY),
            "counters": REGISTRY.snapshot(),
            "gauges": REGISTRY.gauges(),
        }

    def _op_traces(self, params: dict) -> dict:
        """Recent request traces and the slow-query log (most recent
        first), straight from the in-memory rings."""
        self._drain_telemetry()
        limit = params.get("limit", 50)
        if not isinstance(limit, int) or limit < 0:
            raise ServeError("limit must be a non-negative integer")
        return {
            "recent": self._traces.snapshot(limit),
            "slow": self._slow_log.snapshot(limit),
            "slow_query_ms": self.slow_query_ms,
            "seen": self._traces.appended,
        }

    @staticmethod
    def _with_age(record: dict | None) -> dict | None:
        """Copy a timestamped record, turning its captured monotonic
        clock into an ``age_s`` the client can read."""
        if record is None:
            return None
        record = dict(record)
        record["age_s"] = round(
            time.monotonic() - record.pop("monotonic"), 3
        )
        return record

    def health(self) -> dict:
        """The ``GET /healthz`` payload: is this daemon alive and what is
        it serving.  ``last_update`` describes the most recent (re)solve
        — its cost and age — so a poller can tell "serving and
        fresh" from "serving a fixpoint from an hour ago";
        ``last_failure`` is the most recent update that *failed* (the
        daemon kept serving the previous generation), or null."""
        with self._lock:
            self._drain_telemetry()
            return {
                "kind": "serve.health",
                "status": "ok" if self._result is not None else "starting",
                "solver": self.solver,
                "generation": self.generation,
                "uptime_s": round(
                    time.monotonic() - self._started_monotonic, 3
                ),
                "queries": self._traces.appended,
                "last_update": self._with_age(self._last_reload),
                "last_failure": self._with_age(self._last_failure),
            }

    def _resolve(self, name: str) -> list[str]:
        """Canonical object names for a query name: an exact (canonical)
        match first, then the target-index hits for the simple name."""
        names = []
        if name in self._result.pts:
            names.append(name)
        for canonical in self._store.find_targets(name):
            if canonical != name:
                names.append(canonical)
        return names

    def _op_points_to(self, params: dict) -> dict:
        name = _require_str(params, "name")
        resolved = self._resolve(name)
        return {
            "name": name,
            "resolved": resolved,
            "points_to": {
                n: sorted(self._result.points_to(n)) for n in resolved
            },
        }

    def _op_alias(self, params: dict) -> dict:
        a = _require_str(params, "a")
        b = _require_str(params, "b")
        resolved_a = self._resolve(a)
        resolved_b = self._resolve(b)
        witness: set[str] = set()
        for na in resolved_a:
            pts_a = self._result.points_to(na)
            if not pts_a:
                continue
            for nb in resolved_b:
                witness |= pts_a & self._result.points_to(nb)
        return {
            "a": a,
            "b": b,
            "resolved_a": resolved_a,
            "resolved_b": resolved_b,
            "may_alias": bool(witness),
            "witness": sorted(witness),
        }

    def _op_chain(self, params: dict) -> dict:
        target = _require_str(params, "target")
        non_targets = params.get("non_targets", [])
        if not isinstance(non_targets, (list, tuple)):
            raise ServeError("non_targets must be a list of names")
        strength_name = params.get("min_strength", "weak")
        try:
            strength = Strength[str(strength_name).upper()]
        except KeyError:
            raise ServeError(
                f"unknown min_strength {strength_name!r} "
                "(known: weak, strong, direct)"
            ) from None
        limit = params.get("limit", 25)
        if not isinstance(limit, int) or limit < 0:
            raise ServeError("limit must be a non-negative integer")
        try:
            dep = self.pipeline.depend(
                self._store, self._result, target,
                frozenset(str(n) for n in non_targets),
                min_strength=strength,
            )
        except KeyError as exc:
            raise ServeError(str(exc.args[0])) from None
        return {
            "target": target,
            "dependents": len(dep.dependents),
            "counts": summarize(dep),
            "chains": render_all(self._store, dep, limit=limit),
        }

    # -- mutation ops ---------------------------------------------------------

    def _op_update(self, params: dict) -> dict:
        if self.workspace is None:
            raise ServeError(
                "update requires workspace mode (this daemon serves a "
                "linked database; use reload after relinking it)"
            )
        file = _require_str(params, "file")
        text = _require_str(params, "text", allow_empty=True)
        # JSON can carry lone surrogates, which no source file holds.
        try:
            file.encode()
            size = len(text.encode())
        except UnicodeEncodeError:
            raise ServeError(
                "update file and text must be valid Unicode "
                "(no lone surrogates)") from None
        if size > MAX_BODY_BYTES:
            raise ServeError(
                f"update text exceeds the {MAX_BODY_BYTES}-byte limit")
        kind = params.get("kind", "source")
        if kind == "source":
            add = self.workspace.add_source
        elif kind == "header":
            add = self.workspace.add_header
        else:
            raise ServeError(f"unknown kind {kind!r} (known: source, header)")
        try:
            add(file, text)
        except ValueError as exc:  # a header updated as a source, or back
            raise ServeError(str(exc)) from None
        return self._load()

    def _op_reload(self, params: dict) -> dict:
        return self._load()

    # -- solving --------------------------------------------------------------

    def _load(self) -> dict:
        """(Re)build and solve; swap in the new fixpoint.

        In workspace mode the workspace compiles what changed, its held
        units are linked in memory and that store is solved, unless they
        are the units the serving or the kept generation was linked from:
        that generation is then served again, with no link, solve or
        certification.  In database mode the database is (re)opened and
        solved.  On any failure —
        compile or link errors, a certification rejection — the previous
        store/result/generation stay in place untouched, so the daemon
        keeps serving the last good fixpoint (or, from the constructor,
        fails to start at all); the failure is recorded in
        ``reloads["failed"]`` / ``last_failure`` for healthz and stats.
        """
        started = time.perf_counter()
        try:
            return self._load_inner(started)
        except BaseException as exc:
            self.reloads["failed"] += 1
            _RELOADS_FAILED.add()
            self._last_failure = {
                "generation": self.generation,  # the one still serving
                "error": f"{type(exc).__name__}: {exc}",
                "seconds": round(time.perf_counter() - started, 6),
                "monotonic": time.monotonic(),
            }
            raise

    def _load_inner(self, started: float) -> dict:
        solved = True
        compiled = reused = 0
        if self.workspace is None:
            generation = self._solve(
                self.pipeline.open_database(self.database_path), None)
        else:
            held = self.workspace.held_stores()
            again = None if held is None else next(
                (g for g in (self._serving, self._kept)
                 if g is not None and g.built_from(held)), None)
            if again is None and self._kept is not None:
                # Released before anything is compiled, read back, linked
                # or solved: at most two generations are ever alive.
                self._kept.store.close()
                self._kept = None
            stores = self.workspace.unit_stores()
            compiled = self.workspace.stats.compiled
            reused = self.workspace.stats.reused
            solved = again is None
            generation = again or self._solve(
                self.pipeline.link_units(stores), stores)
        self._serve(generation)
        certified = self.certify
        self.reloads["solved" if solved else "reused"] += 1
        (_RELOADS_SOLVED if solved else _RELOADS_REUSED).add()
        if certified:
            self.reloads["certified"] += 1
        wall_s = time.perf_counter() - started
        self._last_reload = {
            "generation": self.generation,
            "certified": certified,
            "seconds": round(wall_s, 6),
            "monotonic": time.monotonic(),  # health() turns this into age_s
        }
        if EVENTS:
            EVENTS.emit(ServeReloadEvent(
                generation=self.generation, solver=self.solver,
                compiled=compiled, reused=reused, solved=solved,
                certified=certified, wall_s=round(wall_s, 6),
            ))
        return {
            "generation": self.generation,
            "compiled": compiled,
            "reused": reused,
            "certified": certified,
            "seconds": round(wall_s, 6),
        }

    def _solve(self, store: ConstraintStore,
               units: list[UnitStore] | None) -> _Generation:
        """Solve a freshly linked or opened store, certified when the
        session certifies.  A store that fails either is closed, so it is
        never served later."""
        try:
            result = self.pipeline.analyze(store, self.solver)
            if self.certify:
                self._certify(store, result)
        except BaseException:
            store.close()
            raise
        return _Generation(store, result, units)

    def _serve(self, generation: _Generation) -> None:
        """Swap ``generation`` in under a new generation number, with an
        empty query cache.  In workspace mode the generation it replaces
        is kept (an undo may return to it); in database mode, whose file
        can change in place, it is closed."""
        replaced = self._serving
        if generation is self._kept:
            self._kept = None
        self._serving = generation
        self._store = generation.store
        self._result = generation.result
        self.generation += 1
        self._cache.drop_before(self.generation)
        if replaced is None or replaced is generation:
            return
        if self.workspace is not None:
            self._kept = replaced
        else:
            replaced.store.close()

    def _certify(self, store: ConstraintStore, result: PointsToResult) -> None:
        """Prove the fixpoint right before serving it: the checker oracle
        must find it a closed model of the store's constraints (and, for
        Andersen-precision solvers, a minimal one).  In workspace mode the
        generation was linked and solved in memory, so its database is
        then written and solved cold as well, and the two routes must
        agree."""
        report = check_result(
            store, result,
            check_minimal=self._solver_cls.precision == "andersen",
        )
        if report.violations:
            first = report.violations[0]
            raise CertificationError(
                f"checker oracle rejected the solved fixpoint: "
                f"{len(report.violations)} violation(s), first: {first}"
            )
        if self.workspace is not None:
            self._compare_routes(store, result)

    def _compare_routes(self, store: ConstraintStore,
                        result: PointsToResult) -> None:
        """The in-memory generation against a cold solve of its written
        database: the same points-to set for every object and the same
        ``find_targets`` answer for every simple name."""
        cold_store = self.pipeline.open_database(self.workspace.build())
        try:
            cold = self.pipeline.analyze(cold_store, self.solver)
            names = set(store.object_names()) | set(cold_store.object_names())
            for name in sorted(names):
                if result.points_to(name) != cold.points_to(name):
                    raise CertificationError(
                        f"routes disagree on pts({name}): "
                        f"{sorted(result.points_to(name))} in memory, "
                        f"{sorted(cold.points_to(name))} from the database"
                    )
            for simple in sorted({simple_name_of(n) for n in names}):
                mine = store.find_targets(simple)
                theirs = cold_store.find_targets(simple)
                if mine != theirs:
                    raise CertificationError(
                        f"routes disagree on the targets of {simple!r}: "
                        f"{mine} in memory, {theirs} from the database"
                    )
        finally:
            cold_store.close()


def _require_str(params: dict, key: str, allow_empty: bool = False) -> str:
    value = params.get(key)
    if not isinstance(value, str) or (not value and not allow_empty):
        raise ServeError(f"missing or non-string parameter {key!r}")
    return value
