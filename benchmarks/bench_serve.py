"""Serving-path benchmarks: the daemon behind ``repro-cla serve``.

Measures the claims the serving layer makes (docs/SERVING.md): warm
queries against a held fixpoint are interactive-speed (cache-miss vs
cache-hit queries/sec), and an ``update`` beats the no-daemon cold
start, for a growing edit (recompile the edited unit, relink, solve from
scratch) and for a shrinking one (an undo: the generation it returns to
is served again).  One synth workspace is built and solved once per
run; the benches time only the request path.

``extra_info`` carries ``queries_per_s`` / ``compiled`` / ``speedup``
so the emitted BENCH_serve.json (via conftest's ``pytest_sessionfinish``)
is self-describing for ``repro-cla report --bench``.
"""

import os
import tempfile
import time

from repro.driver.incremental import Workspace
from repro.serve import ServeSession
from repro.synth import generate

PROFILE = os.environ.get("REPRO_SERVE_PROFILE", "gcc")
SCALE = float(os.environ.get("REPRO_SERVE_SCALE", "0.05"))
QUERY_BATCH = 64

_STATE: dict = {}


def serving_session() -> ServeSession:
    """One warm daemon per bench run (startup cold solve happens once)."""
    if "session" not in _STATE:
        program = generate(PROFILE, scale=SCALE, seed=42)
        tmpdir = tempfile.TemporaryDirectory()
        workspace = Workspace(cache_dir=os.path.join(tmpdir.name, "cache"))
        workspace.add_header(program.header_name, program.header)
        for name, text in program.files.items():
            workspace.add_source(name, text)
        start = time.perf_counter()
        session = ServeSession(workspace=workspace)
        edit_file = sorted(program.files)[0]
        _STATE.update(
            tmpdir=tmpdir,
            workspace=workspace,
            session=session,
            startup_s=time.perf_counter() - start,
            names=sorted(
                n for n, pts in session._result.pts.items() if pts
            )[:QUERY_BATCH],
            edit_file=edit_file,
            edit_text=program.files[edit_file],
            edits=0,
        )
    return _STATE["session"]


def run_query_batch(session) -> None:
    for name in _STATE["names"]:
        response = session.request("points-to", {"name": name})
        assert response["ok"], response


def grown_edit_text() -> str:
    """The edited unit's next revision: one more self-contained
    ``__bench_*`` chunk appended, never compiled before."""
    _STATE["edits"] += 1
    i = _STATE["edits"]
    _STATE["edit_text"] += (
        f"\nstatic int __bench_x{i}; static int *__bench_p{i};\n"
        f"static void __bench_f{i}(void) "
        f"{{ __bench_p{i} = &__bench_x{i}; }}\n"
    )
    return _STATE["edit_text"]


def test_serve_query_cold(benchmark, report):
    """Cache-miss queries: every request decodes masks afresh."""
    session = serving_session()

    def setup():
        session._cache.clear()
        return (), {}

    benchmark.pedantic(lambda: run_query_batch(session),
                       setup=setup, rounds=5, iterations=1)
    per_query = benchmark.stats.stats.min / QUERY_BATCH
    info = {"n_queries": QUERY_BATCH, "cache": "miss",
            "queries_per_s": 1.0 / per_query if per_query else 0.0,
            "startup_s": _STATE["startup_s"]}
    benchmark.extra_info.update(info)
    report.append(
        f"[serve] {PROFILE} cold queries: "
        f"{info['queries_per_s']:.0f} q/s (batch of {QUERY_BATCH})"
    )


def test_serve_query_warm(benchmark, report):
    """Cache-hit queries: the generation-keyed LRU answers."""
    session = serving_session()
    run_query_batch(session)  # prime the cache

    def run():
        for name in _STATE["names"]:
            response = session.request("points-to", {"name": name})
            assert response["ok"] and response["cache_hit"], response

    benchmark.pedantic(run, rounds=5, iterations=1)
    per_query = benchmark.stats.stats.min / QUERY_BATCH
    info = {"n_queries": QUERY_BATCH, "cache": "hit",
            "queries_per_s": 1.0 / per_query if per_query else 0.0}
    # The daemon's own histogram-backed view of the same op.
    op_stats = session.request("stats")["result"]["queries"]["points-to"]
    info.update(p50_ms=op_stats["p50_ms"], p90_ms=op_stats["p90_ms"],
                p99_ms=op_stats["p99_ms"])
    benchmark.extra_info.update(info)
    report.append(
        f"[serve] {PROFILE} warm queries: "
        f"{info['queries_per_s']:.0f} q/s (batch of {QUERY_BATCH}; "
        f"p50 {info['p50_ms']:.3f}ms / p99 {info['p99_ms']:.3f}ms)"
    )


def test_serve_telemetry_overhead(benchmark, report):
    """The telemetry tax on the hottest path, guarded.

    With the event ledger off, per-request telemetry is one envelope
    enqueue (histogram/ring/counter aggregation is deferred to the next
    drain).  Compares the cache-hit batch with that path live against
    the same batch with the session's ``_record`` seam stubbed out.
    The events-off/histogram-on path must cost < 5% in queries/sec."""
    session = serving_session()
    run_query_batch(session)  # prime the cache
    rounds = 7

    def batch_min(runs: int) -> float:
        best = float("inf")
        for _ in range(runs):
            # Start each round with an empty backlog so the deferred
            # aggregation (paid at scrape/read time) never lands inside
            # the timed batch — the guard is about the query path.
            session.flush_telemetry()
            start = time.perf_counter()
            run_query_batch(session)
            best = min(best, time.perf_counter() - start)
        return best

    batch_min(2)  # warm up both code paths before timing
    with_telemetry = batch_min(rounds)
    real_record = session._record
    try:
        session._record = lambda *args, **kwargs: None
        without = batch_min(rounds)
    finally:
        session._record = real_record
    overhead = with_telemetry / without - 1.0 if without else 0.0
    benchmark.pedantic(lambda: run_query_batch(session),
                       rounds=3, iterations=1)
    info = {"n_queries": QUERY_BATCH,
            "with_telemetry_s": with_telemetry,
            "without_telemetry_s": without,
            "overhead": overhead}
    benchmark.extra_info.update(info)
    report.append(
        f"[serve] {PROFILE} telemetry overhead on cache hits: "
        f"{overhead:+.1%} ({without * 1e6:.0f}us -> "
        f"{with_telemetry * 1e6:.0f}us per batch of {QUERY_BATCH})"
    )
    # <5% relative, with a small absolute floor so timer jitter on a
    # sub-millisecond batch cannot flake the guard (cf. the event-ledger
    # overhead guard in bench_scaling.py).
    assert with_telemetry <= without * 1.05 + 0.0005, (
        f"telemetry adds {overhead:.1%} to the cache-hit path "
        f"(budget: 5%)"
    )


def test_serve_update_grow(benchmark, report):
    """A growing edit: recompile the one edited unit, relink, solve."""
    session = serving_session()
    holder = {}

    def setup():
        holder["text"] = grown_edit_text()
        return (), {}

    def run():
        response = session.request(
            "update", {"file": _STATE["edit_file"], "text": holder["text"]}
        )
        assert response["ok"], response
        assert response["result"]["compiled"] == 1, response
        holder["response"] = response

    benchmark.pedantic(run, setup=setup, rounds=3, iterations=1)
    info = {"compiled": 1,
            "reused": holder["response"]["result"]["reused"],
            "update_s": benchmark.stats.stats.min}
    benchmark.extra_info.update(info)
    _STATE["grow_s"] = info["update_s"]
    report.append(
        f"[serve] {PROFILE} growing update: "
        f"{info['update_s'] * 1e3:.1f} ms end to end "
        f"(1 compiled, {info['reused']} reused)"
    )


def test_serve_update_shrink(benchmark, report):
    """A shrinking edit: each round's setup grows the edited unit by one
    ``__bench_*`` chunk, then the timed body edits it back out.  That
    undo returns to the units the generation before the grow was linked
    from, so the timed body serves that generation again: content keys
    and include checks, no link and no solve."""
    session = serving_session()
    holder = {}

    def setup():
        holder["shrunk"] = _STATE["edit_text"]
        grow = session.request(
            "update", {"file": _STATE["edit_file"], "text": grown_edit_text()}
        )
        assert grow["ok"], grow
        assert grow["result"]["compiled"] == 1, grow
        # The timed run shrinks back to the saved text; keep _STATE in
        # step so the next round grows from the served base again.
        _STATE["edit_text"] = holder["shrunk"]
        return (), {}

    def run():
        response = session.request(
            "update",
            {"file": _STATE["edit_file"], "text": holder["shrunk"]},
        )
        assert response["ok"], response
        assert response["result"]["compiled"] == 0, response
        holder["response"] = response

    benchmark.pedantic(run, setup=setup, rounds=3, iterations=1)
    info = {"compiled": 0,
            "reused": holder["response"]["result"]["reused"],
            "update_s": benchmark.stats.stats.min}
    benchmark.extra_info.update(info)
    _STATE["shrink_s"] = info["update_s"]
    report.append(
        f"[serve] {PROFILE} shrinking update: "
        f"{info['update_s'] * 1e3:.1f} ms end to end "
        f"(0 compiled, {info['reused']} reused)"
    )


def test_serve_reload(benchmark, report):
    """A ``reload`` with unchanged content: every held unit is the
    serving generation's, so the timed body serves that generation again
    under a new generation number (content keys and include checks, no
    link and no solve)."""
    session = serving_session()

    def run():
        response = session.request("reload", {})
        assert response["ok"], response
        assert response["result"]["compiled"] == 0, response

    benchmark.pedantic(run, rounds=3, iterations=1)
    reload_s = benchmark.stats.stats.min
    benchmark.extra_info.update({"compiled": 0, "reload_s": reload_s})
    report.append(
        f"[serve] {PROFILE} reload (served again): {reload_s * 1e3:.1f} ms"
    )


def test_serve_cold_start(benchmark, report):
    """The §4 edit-one-file baseline: with no daemon (and no object
    cache) an edit costs a full compile-everything + link + solve.
    The ``update`` points above recompile at most one unit — that ratio
    is the serving story."""
    program = generate(PROFILE, scale=SCALE, seed=42)
    holder = {"n": 0}

    def run():
        holder["n"] += 1
        tmpdir = tempfile.TemporaryDirectory()
        workspace = Workspace(
            cache_dir=os.path.join(tmpdir.name, f"cold-{holder['n']}")
        )
        workspace.add_header(program.header_name, program.header)
        for name, text in program.files.items():
            workspace.add_source(name, text)
        session = ServeSession(workspace=workspace)
        assert session.generation == 1
        session.close()
        workspace.close()
        tmpdir.cleanup()

    benchmark.pedantic(run, rounds=2, iterations=1)
    cold_start_s = benchmark.stats.stats.min
    info = {"units": len(program.files), "cold_start_s": cold_start_s}
    line = (f"[serve] {PROFILE} cold start (compile all "
            f"{info['units']} units + solve): {cold_start_s * 1e3:.1f} ms")
    for edit in ("grow", "shrink"):
        update_s = _STATE.get(f"{edit}_s")
        if update_s:
            speedup = cold_start_s / update_s
            info[f"speedup_{edit}_vs_cold_start"] = speedup
            line += f"; {edit} update {speedup:.1f}x faster"
    benchmark.extra_info.update(info)
    report.append(line)
    serving_session().close()
    _STATE["workspace"].close()
