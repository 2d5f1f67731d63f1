"""Tests for the run ledger: the event bus, sinks, and emission from the
solvers, the CLA layer, and the pipeline."""

import io
import json

import pytest

from repro.cla.cache import BlockCache
from repro.engine.events import (
    EVENTS,
    EVENTS_SCHEMA_VERSION,
    EventBus,
    JsonlSink,
    MemorySink,
    ProgressSink,
    ServeQueryEvent,
    ServeSlowQueryEvent,
    SolverBeginEvent,
    SolverEndEvent,
    SolverRoundEvent,
    SpanEvent,
    UnitCompiledEvent,
    read_events,
)
from repro.engine.pipeline import Pipeline
from repro.solvers import SOLVERS
from repro.synth.kernels import diff_propagation_kernel


class TestEventBus:
    def test_bus_is_falsy_without_sinks(self):
        bus = EventBus()
        assert not bus
        sink = MemorySink()
        bus.add_sink(sink)
        assert bus
        bus.remove_sink(sink)
        assert not bus
        bus.remove_sink(sink)  # double-remove must not raise

    def test_emit_without_sinks_is_a_no_op(self):
        bus = EventBus()
        event = SolverRoundEvent(solver="x", round=1)
        bus.emit(event)  # nothing to deliver to; must not raise
        assert event.ts == 0.0  # not even stamped

    def test_sink_contextmanager_detaches(self):
        bus = EventBus()
        with bus.sink(MemorySink()) as sink:
            bus.emit(SolverBeginEvent(solver="s"))
            assert len(sink.events) == 1
        assert not bus
        bus.emit(SolverBeginEvent(solver="t"))
        assert len(sink.events) == 1  # nothing delivered after detach

    def test_ts_is_monotonic_from_first_event(self):
        bus = EventBus()
        sink = bus.add_sink(MemorySink())
        for i in range(3):
            bus.emit(SolverRoundEvent(solver="s", round=i))
        stamps = [e.ts for e in sink.events]
        assert stamps[0] == 0.0
        assert stamps == sorted(stamps)

    def test_memory_sink_of_kind_and_kinds(self):
        bus = EventBus()
        sink = bus.add_sink(MemorySink())
        bus.emit(SolverBeginEvent(solver="s"))
        bus.emit(SolverRoundEvent(solver="s", round=1))
        assert sink.kinds() == ["solver.begin", "solver.round"]
        assert len(sink.of_kind("solver.round")) == 1
        assert sink.of_kind("cla.load") == []

    def test_memory_sink_unbounded_by_default(self):
        bus = EventBus()
        sink = bus.add_sink(MemorySink())
        for i in range(1000):
            bus.emit(SolverRoundEvent(solver="s", round=i))
        assert len(sink.events) == 1000
        assert sink.dropped == 0

    def test_memory_sink_maxlen_keeps_most_recent(self):
        bus = EventBus()
        sink = bus.add_sink(MemorySink(maxlen=3))
        for i in range(10):
            bus.emit(SolverRoundEvent(solver="s", round=i))
        assert [e.round for e in sink.events] == [7, 8, 9]
        assert sink.dropped == 7
        assert sink.kinds() == ["solver.round"] * 3

    def test_memory_sink_rejects_bad_maxlen(self):
        with pytest.raises(ValueError):
            MemorySink(maxlen=0)


class TestJsonlRoundTrip:
    def test_header_then_flat_records(self, tmp_path):
        path = str(tmp_path / "e.jsonl")
        bus = EventBus()
        sink = JsonlSink(path)
        with bus.sink(sink):
            bus.emit(SolverBeginEvent(solver="pretransitive", in_file=7))
            bus.emit(SolverRoundEvent(solver="pretransitive", round=1,
                                      edges_added=3))
        sink.close()
        sink.close()  # idempotent
        lines = [json.loads(s)
                 for s in open(path).read().splitlines()]
        assert lines[0] == {"kind": "events.header",
                            "schema": EVENTS_SCHEMA_VERSION}
        records = read_events(path)
        assert [r["kind"] for r in records] == ["solver.begin",
                                               "solver.round"]
        assert records[0]["in_file"] == 7
        assert records[1]["edges_added"] == 3
        # schema v1: flat records, every dataclass field present
        assert set(records[1]) == {
            "kind", "solver", "round", "edges_added", "delta_lvals",
            "lval_cache_hits", "lval_cache_misses", "cache_hit_rate",
            "cycles_collapsed", "nodes_visited", "constraints",
            "blocks_loaded", "ts",
        }

    def test_read_events_rejects_headerless_file(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "solver.begin"}\n')
        with pytest.raises(ValueError, match="no header"):
            read_events(str(path))

    def test_read_events_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "events.header", "schema": 99}\n')
        with pytest.raises(ValueError, match="schema"):
            read_events(str(path))

    def test_read_events_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_events(str(path))

    def test_events_visible_before_close(self, tmp_path):
        """The ledger must be tail-able: every record is flushed as it is
        written, so a reader sees it while the daemon still runs."""
        path = str(tmp_path / "live.jsonl")
        bus = EventBus()
        sink = JsonlSink(path)
        bus.add_sink(sink)
        # Header lands on open, before any event.
        assert json.loads(open(path).readline())["kind"] == "events.header"
        bus.emit(SolverBeginEvent(solver="s"))
        records = read_events(path)  # sink deliberately NOT closed
        assert [r["kind"] for r in records] == ["solver.begin"]
        bus.emit(SolverRoundEvent(solver="s", round=1))
        assert len(read_events(path)) == 2
        sink.close()

    def test_serve_slow_query_round_trip(self, tmp_path):
        path = str(tmp_path / "slow.jsonl")
        bus = EventBus()
        sink = JsonlSink(path)
        with bus.sink(sink):
            bus.emit(ServeQueryEvent(op="chain", trace="t3", wall_ms=80.0))
            bus.emit(ServeSlowQueryEvent(op="chain", trace="t3",
                                         wall_ms=80.0, threshold_ms=50.0))
        sink.close()
        records = read_events(path)
        assert [r["kind"] for r in records] \
            == ["serve.query", "serve.slow_query"]
        assert records[0]["trace"] == "t3"
        assert records[1]["threshold_ms"] == 50.0


class TestSolverEmission:
    """Every solver choice must emit begin / per-round / end events whose
    deltas reconcile with the end-of-run stats."""

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    def test_round_events_reconcile_with_stats(self, solver):
        store = diff_propagation_kernel(24)
        with EVENTS.sink(MemorySink()) as sink:
            result = SOLVERS[solver](store).solve()
        kinds = sink.kinds()
        assert kinds[0] == "solver.begin"
        assert kinds[-1] == "solver.end"
        rounds = sink.of_kind("solver.round")
        assert rounds, f"{solver} emitted no round events"
        assert all(e.solver == solver for e in rounds)
        stats = result.stats
        assert sum(e.edges_added for e in rounds) == stats.edges_added
        assert sum(e.cycles_collapsed for e in rounds) \
            == stats.cycles_collapsed
        # Result extraction queries the lval cache after the last round,
        # so the per-round deltas bound the totals from below.
        assert sum(e.lval_cache_hits for e in rounds) <= stats.cache_hits
        assert sum(e.lval_cache_misses for e in rounds) \
            <= stats.cache_misses
        end = sink.of_kind("solver.end")[0]
        assert end.rounds == stats.rounds
        assert end.stats == stats.as_dict()

    def test_pretransitive_rounds_are_contiguous(self):
        store = diff_propagation_kernel(24)
        with EVENTS.sink(MemorySink()) as sink:
            result = SOLVERS["pretransitive"](store).solve()
        rounds = [e.round for e in sink.of_kind("solver.round")]
        # One event per literal fixpoint round, in order, none skipped.
        assert rounds == list(range(1, result.stats.rounds + 1))
        begin = sink.of_kind("solver.begin")[0]
        assert begin.in_file == store.stats.in_file

    def test_golden_pretransitive_round_fields(self):
        """Golden ledger for the fixed deref-ladder kernel: the §5
        convergence shape — one rung resolves per round, then one clean
        round confirms the fixpoint."""
        store = diff_propagation_kernel(8)
        with EVENTS.sink(MemorySink()) as sink:
            result = SOLVERS["pretransitive"](store).solve()
        rounds = sink.of_kind("solver.round")
        assert len(rounds) == result.stats.rounds
        # Convergence: the last round is the no-change round.
        assert rounds[-1].edges_added == 0
        assert all(e.edges_added > 0 for e in rounds[:-1])
        # Running totals are monotonic.
        blocks = [e.blocks_loaded for e in rounds]
        assert blocks == sorted(blocks)
        constraints = [e.constraints for e in rounds]
        assert constraints == sorted(constraints)
        # The hit rate is a rate.
        assert all(0.0 <= e.cache_hit_rate <= 1.0 for e in rounds)

    def test_no_sink_no_emission_state(self):
        """With the bus off, solving must not touch event state at all
        (the zero-overhead-when-off contract)."""
        assert not EVENTS
        store = diff_propagation_kernel(8)
        result = SOLVERS["pretransitive"](store).solve()
        assert result.stats.rounds > 0


class TestClaPressureEvents:
    def test_load_reload_evict_events_under_budget(self):
        inner = diff_propagation_kernel(16)
        statics = len(inner.fetch_statics())
        with EVENTS.sink(MemorySink()) as sink:
            cache = BlockCache(inner, statics + 2)
            names = list(cache.block_names())
            for name in names:
                cache.load_block(name)
            for name in names:  # second pass: evicted blocks re-read
                cache.load_block(name)
        loads = sink.of_kind("cla.load")
        assert loads, "no cla.load events"
        assert sink.of_kind("cla.evict"), "budget produced no evictions"
        reloads = sink.of_kind("cla.reload")
        assert reloads, "second pass produced no reloads"
        # Totals on the last pressure event match the cache accounting.
        last = [e for e in sink.events
                if e.KIND in ("cla.load", "cla.reload", "cla.evict")][-1]
        assert last.in_core == cache.stats.in_core
        # in_core never exceeds the budget on any event.
        for e in loads + reloads:
            assert e.in_core <= statics + 2

    def test_memory_store_load_events(self):
        store = diff_propagation_kernel(4)
        with EVENTS.sink(MemorySink()) as sink:
            store.static_assignments()
            for name in list(store.block_names()):
                store.load_block(name)
        loads = sink.of_kind("cla.load")
        assert loads
        assert sum(e.assignments for e in loads) == store.stats.loaded


class TestPipelineEvents:
    SOURCES = {
        "a.c": "int x, *p; void f(void) { p = &x; }\n",
        "b.c": "extern int *p; int *q; void g(void) { q = p; }\n",
    }

    def test_stage_and_unit_events_serial(self):
        with EVENTS.sink(MemorySink()) as sink:
            pipeline = Pipeline()
            units = pipeline.compile_units(dict(self.SOURCES))
            store = pipeline.link_units(units)
            pipeline.analyze(store, "pretransitive")
        stages = [(e.stage, e.phase) for e in sink.of_kind("stage")]
        assert stages == [
            ("compile", "begin"),
            ("unit", "begin"), ("unit", "end"),
            ("unit", "begin"), ("unit", "end"),
            ("compile", "end"),
            ("link", "begin"), ("link", "end"),
            ("analyze", "begin"), ("analyze", "end"),
        ]
        spans = {(e.stage, e.phase): e for e in sink.of_kind("stage")}
        compile_id = spans["compile", "begin"].id
        assert [e.parent for e in sink.of_kind("stage")
                if e.stage == "unit"] == [compile_id] * 4
        assert spans["link", "end"].parent is None
        compile_end = spans["compile", "end"]
        assert compile_end.id == compile_id
        assert compile_end.attrs["files"] == 2
        assert compile_end.attrs["assignments"] > 0
        assert compile_end.wall_s >= 0.0
        unit_events = sink.of_kind("compile.unit")
        assert [(e.file, e.index, e.total) for e in unit_events] == [
            ("a.c", 1, 2), ("b.c", 2, 2),
        ]
        assert all(e.assignments >= 0 for e in unit_events)

    def test_unit_events_parallel_preserve_result_order(self):
        with EVENTS.sink(MemorySink()) as sink:
            pipeline = Pipeline(jobs=2)
            units = pipeline.compile_units(dict(self.SOURCES))
        # Results stay in sorted-source order regardless of completion.
        assert [u.filename for u in units] == ["a.c", "b.c"]
        unit_events = sink.of_kind("compile.unit")
        assert {e.file for e in unit_events} == {"a.c", "b.c"}
        assert sorted(e.index for e in unit_events) == [1, 2]
        assert all(e.total == 2 for e in unit_events)

    def test_failing_stage_still_emits_end(self):
        with EVENTS.sink(MemorySink()) as sink:
            pipeline = Pipeline()
            with pytest.raises(ValueError):
                pipeline.analyze(object(), "no-such-solver")
            units = pipeline.compile_units({"a.c": "int broken_ok;\n"})
            store = pipeline.link_units(units)
            with pytest.raises(TypeError):
                pipeline.analyze(store, "pretransitive",
                                 no_such_kwarg=True)
        analyze_events = [e for e in sink.of_kind("stage")
                          if e.stage == "analyze"]
        # The unknown-solver error fires before the stage opens; the
        # bad-kwarg error fires inside it and must still close the entry.
        assert [(e.phase) for e in analyze_events] == ["begin", "end"]


class TestProgressSink:
    def _bus_with_progress(self, min_interval=0.0):
        bus = EventBus()
        out = io.StringIO()
        bus.add_sink(ProgressSink(out, min_interval=min_interval))
        return bus, out

    def test_renders_run_narrative(self):
        bus, out = self._bus_with_progress()
        bus.emit(SpanEvent(stage="session", phase="begin"))
        bus.emit(SpanEvent(stage="compile", phase="begin"))
        bus.emit(SpanEvent(stage="unit", phase="begin"))
        bus.emit(UnitCompiledEvent(file="a.c", index=1, total=3))
        bus.emit(SpanEvent(stage="unit", phase="end", wall_s=0.125))
        bus.emit(SpanEvent(stage="compile", phase="end", wall_s=0.25))
        bus.emit(SolverBeginEvent(solver="pretransitive", in_file=10))
        bus.emit(SolverRoundEvent(solver="pretransitive", round=1,
                                  edges_added=5, cache_hit_rate=0.5))
        bus.emit(SolverEndEvent(solver="pretransitive", rounds=1))
        text = out.getvalue()
        assert "1/3 units" in text
        assert "a.c" in text
        assert "done in 0.25s" in text
        assert "10 assignments in file" in text
        assert "round 1" in text and "edges +5" in text
        assert "50.0%" in text
        assert "done in 1 rounds" in text
        # Only the pipeline stages render, not session or unit spans.
        assert "session" not in text and "unit]" not in text
        assert "0.12s" not in text
        # Non-TTY stream: line-per-update, no carriage returns.
        assert "\r" not in text

    def test_cla_pressure_is_throttled(self):
        from repro.engine.events import BlockLoadEvent

        bus, out = self._bus_with_progress(min_interval=3600.0)
        bus.emit(BlockLoadEvent(assignments=5, blocks=1, in_core=5,
                                loaded=5))
        bus.emit(BlockLoadEvent(assignments=5, blocks=1, in_core=10,
                                loaded=10))
        # Only the first pressure line lands inside the interval.
        assert out.getvalue().count("blocks loaded") == 1

    def test_round_events_always_render(self):
        bus, out = self._bus_with_progress(min_interval=3600.0)
        bus.emit(SolverRoundEvent(solver="s", round=1))
        bus.emit(SolverRoundEvent(solver="s", round=2))
        text = out.getvalue()
        assert "round 1" in text and "round 2" in text

    def test_serve_query_lines_are_throttled(self):
        bus, out = self._bus_with_progress(min_interval=3600.0)
        bus.emit(ServeQueryEvent(op="points-to", generation=1,
                                 cache_hit=False, wall_ms=0.4))
        bus.emit(ServeQueryEvent(op="points-to", generation=1,
                                 cache_hit=True, wall_ms=0.1))
        text = out.getvalue()
        # Only the first query lands inside the throttle interval.
        assert text.count("[serve]") == 1
        assert "points-to (gen 1, miss) 0.40ms" in text

    def test_slow_query_lines_are_never_throttled(self):
        bus, out = self._bus_with_progress(min_interval=3600.0)
        for n in range(2):
            bus.emit(ServeSlowQueryEvent(
                op="chain", trace=f"t{n}", generation=2,
                wall_ms=120.0, threshold_ms=50.0,
            ))
        text = out.getvalue()
        assert text.count("SLOW chain") == 2
        assert "(gen 2, trace t0) 120.00ms > 50ms budget" in text
