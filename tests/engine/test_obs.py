"""Tests for the observability layer: spans, tracing, counters."""

import gc
import json

import pytest

from repro.engine.events import EVENTS, JsonlSink, MemorySink, read_events
from repro.engine.obs import (
    DEFAULT_LATENCY_BOUNDS,
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Span,
    Tracer,
    TRACE_SCHEMA_VERSION,
    ambient,
    process_user_s,
    span,
    span_tree,
)


@pytest.fixture
def tracer():
    """A Tracer attached to the process bus for one test."""
    with EVENTS.sink(Tracer()) as t:
        yield t


class TestSpanNesting:
    def test_nested_spans_form_a_tree(self, tracer):
        with span("compile", files=2):
            with span("unit", file="a.c"):
                pass
            with span("unit", file="b.c"):
                pass
        with span("analyze", solver="pretransitive"):
            pass
        assert [r["name"] for r in tracer.roots] == ["compile", "analyze"]
        compile_span = tracer.roots[0]
        assert [c["name"] for c in compile_span["children"]] \
            == ["unit", "unit"]
        assert compile_span["children"][0]["attrs"]["file"] == "a.c"

    def test_current_and_annotate(self):
        """The innermost open span is the parent of the next one, and
        ``annotate`` lands on the span's end record."""
        with EVENTS.sink(MemorySink()) as sink:
            with span("link") as link:
                link.annotate(objects=7)
                with span("inner") as inner:
                    pass
            with span("after") as after:
                pass
        assert inner.parent == link.id
        assert link.parent is None and after.parent is None
        (end,) = [e for e in sink.of_kind("stage")
                  if e.stage == "link" and e.phase == "end"]
        assert end.attrs == {"objects": 7}
        # No sink: annotating the no-op span must not raise.
        with span("off") as off:
            off.annotate(ignored=True)

    def test_find_and_iter_spans_parents(self, tracer):
        with span("a"):
            with span("b"):
                with span("c"):
                    pass
        pairs = {s["name"]: (p["name"] if p else None)
                 for s, p in tracer.iter_spans()}
        assert pairs == {"a": None, "b": "a", "c": "b"}
        assert [s["name"] for s in tracer.find("b")] == ["b"]

    def test_exception_annotates_and_unwinds(self, tracer):
        with pytest.raises(RuntimeError):
            with span("outer"):
                with span("inner"):
                    raise RuntimeError("boom")
        inner = tracer.find("inner")[0]
        assert "boom" in inner["attrs"]["error"]
        assert "boom" in tracer.find("outer")[0]["attrs"]["error"]
        # Both closed: the next span is a root again.
        with span("next"):
            pass
        assert [r["name"] for r in tracer.roots] == ["outer", "next"]

    def test_no_sink_records_nothing(self):
        assert not EVENTS
        with span("quiet", x=1) as quiet:
            with span("nested"):
                pass
        assert not isinstance(quiet, Span)


class TestSpanTiming:
    def test_timing_monotonicity(self):
        with EVENTS.sink(MemorySink()) as sink:
            with span("outer"):
                with span("inner"):
                    sum(range(10_000))
        ends = {e.stage: e for e in sink.of_kind("stage")
                if e.phase == "end"}
        begins = {e.stage: e for e in sink.of_kind("stage")
                  if e.phase == "begin"}
        outer, inner = ends["outer"], ends["inner"]
        assert inner.wall_s >= 0
        assert outer.wall_s >= inner.wall_s
        assert begins["inner"].ts >= begins["outer"].ts
        assert inner.ts <= outer.ts
        assert outer.user_s >= 0

    def test_open_span_reports_its_begin_record(self):
        with EVENTS.sink(MemorySink()) as sink:
            ctx = span("open", k=1)
            opened = ctx.__enter__()
            try:
                (begin,) = sink.of_kind("stage")
                assert (begin.stage, begin.phase) == ("open", "begin")
                assert begin.id == opened.id and begin.attrs == {"k": 1}
            finally:
                ctx.__exit__(None, None, None)
        assert [e.phase for e in sink.of_kind("stage")] == ["begin", "end"]

    def test_counts_a_full_collection(self, tracer):
        with span("collect"):
            gc.collect()
        [node] = tracer.find("collect")
        assert len(node["gc_collections"]) == 3  # young, middle, full
        assert node["gc_collections"][2] >= 1

    def test_collector_off_counts_none(self):
        gc.disable()
        try:
            with EVENTS.sink(MemorySink()) as sink:
                with span("quiet"):
                    pass
        finally:
            gc.enable()
        [end] = [e for e in sink.of_kind("stage") if e.phase == "end"]
        assert end.gc_collections == [0, 0, 0]


class TestTraceExport:
    def test_to_dict_schema(self, tracer):
        with span("compile", files=1):
            with span("unit", file="a.c"):
                pass
        doc = tracer.to_dict(registry=MetricsRegistry())
        assert doc["schema"] == TRACE_SCHEMA_VERSION
        assert isinstance(doc["counters"], dict)
        (root,) = doc["trace"]
        assert root["name"] == "compile"
        assert root["attrs"] == {"files": 1}
        assert root["children"][0]["name"] == "unit"
        assert root["start_s"] == 0.0
        assert root["wall_s"] >= root["children"][0]["wall_s"]

    def test_write_json(self, tracer, tmp_path):
        with span("analyze"):
            pass
        out = tmp_path / "trace.json"
        tracer.write(str(out))
        doc = json.loads(out.read_text())
        assert doc["trace"][0]["name"] == "analyze"

    def test_write_dispatches_on_jsonl_extension(self, tracer, tmp_path):
        """``Tracer.write`` must honour the documented contract: a
        ``.jsonl`` path gets the flat one-span-per-line format."""
        with span("a"):
            with span("b"):
                pass
        out = tmp_path / "trace.jsonl"
        tracer.write(str(out))
        lines = out.read_text().splitlines()
        assert len(lines) == 2  # flat: one record per span, no tree doc
        records = [json.loads(line) for line in lines]
        by_name = {r["name"]: r for r in records}
        assert by_name["b"]["parent"] == by_name["a"]["id"]
        # Round-trip consistency with the tree export.
        tree = tracer.to_dict(registry=MetricsRegistry())
        assert tree["trace"][0]["name"] == "a"
        assert {r["name"] for r in records} \
            == {s["name"] for s, _ in tracer.iter_spans()}

    def test_write_jsonl_parent_references(self, tracer, tmp_path):
        with span("a"):
            with span("b"):
                pass
        with span("c"):
            pass
        out = tmp_path / "trace.jsonl"
        tracer.write_jsonl(str(out))
        records = [json.loads(line) for line in out.read_text().splitlines()]
        by_name = {r["name"]: r for r in records}
        assert by_name["a"]["parent"] is None
        assert by_name["b"]["parent"] == by_name["a"]["id"]
        assert by_name["c"]["parent"] is None
        assert all("children" not in r for r in records)

    def test_ledger_records_rebuild_the_same_tree(self, tracer, tmp_path):
        """A ledger holds the records a Tracer sees, so ``span_tree``
        over the ledger file gives the Tracer's tree."""
        path = str(tmp_path / "e.jsonl")
        jsonl = JsonlSink(path)
        with EVENTS.sink(jsonl):
            with span("session"):
                with span("compile", files=1):
                    with span("unit", file="a.c"):
                        pass
                with span("analyze"):
                    pass
        jsonl.close()
        assert span_tree(read_events(path)) == tracer.roots

    def test_records_without_ids_become_roots(self):
        roots = span_tree([
            {"kind": "stage", "stage": "compile", "phase": "end",
             "attrs": {"files": 2}, "wall_s": 0.4, "ts": 0.5},
            {"kind": "solver.end", "ts": 0.6},
        ])
        assert roots == [{
            "name": "compile", "start_s": 0.0, "wall_s": 0.4,
            "user_s": 0.0, "rss_delta_mb": 0.0, "gc_collections": None,
            "attrs": {"files": 2}, "children": [],
        }]


class TestCounters:
    def test_counter_is_monotonic(self):
        c = Counter("x")
        assert c.add() == 1
        assert c.add(4) == 5
        with pytest.raises(ValueError):
            c.add(-1)
        assert c.value == 5

    def test_registry_snapshot_only_nonzero_sorted(self):
        reg = MetricsRegistry()
        reg.counter("zeta").add(2)
        reg.counter("alpha").add(1)
        reg.counter("never")  # stays zero
        assert list(reg.snapshot().items()) == [("alpha", 1), ("zeta", 2)]

    def test_registry_snapshot_include_zero(self):
        reg = MetricsRegistry()
        reg.counter("zeta").add(2)
        reg.counter("never")  # stays zero
        snap = reg.snapshot(include_zero=True)
        # Schema-stable output: every registered counter, still sorted.
        assert list(snap.items()) == [("never", 0), ("zeta", 2)]

    def test_reset_keeps_handles_live(self):
        reg = MetricsRegistry()
        handle = reg.counter("cla.test")
        handle.add(3)
        reg.reset()
        assert reg.snapshot() == {}
        handle.add(2)  # the module-level-handle pattern must survive reset
        assert reg.snapshot() == {"cla.test": 2}
        assert reg.counter("cla.test") is handle

    def test_process_registry_feeds_load_accounting(self):
        from repro.cla.store import MemoryStore
        from repro.engine.pipeline import compile_source

        REGISTRY.reset()
        unit = compile_source("int x, *p; void f(void){ p = &x; *p = 1; }")
        store = MemoryStore(unit)
        store.static_assignments()
        for name in list(store.block_names()):
            store.load_block(name)
        snap = REGISTRY.snapshot()
        assert snap.get("cla.assignments_loaded", 0) >= store.stats.loaded
        assert store.stats.blocks_loaded > 0
        assert snap.get("cla.blocks_loaded", 0) >= store.stats.blocks_loaded


class TestGauges:
    def test_gauge_set_and_registry(self):
        g = Gauge("rss")
        assert g.value == 0.0
        g.set(12.5)
        assert g.value == 12.5
        g.set(3.0)  # gauges go down, too
        assert g.value == 3.0

    def test_registry_gauges_snapshot(self):
        reg = MetricsRegistry()
        reg.gauge("b").set(2.0)
        reg.gauge("a")  # stays zero
        assert reg.gauges() == {"b": 2.0}
        assert list(reg.gauges(include_zero=True).items()) \
            == [("a", 0.0), ("b", 2.0)]
        assert reg.gauge("b") is reg.gauge("b")
        reg.reset()
        assert reg.gauges() == {}


class TestHistogram:
    def test_bounds_must_increase(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", bounds=())

    def test_observe_buckets_and_totals(self):
        h = Histogram("h", bounds=(0.001, 0.01, 0.1))
        for v in (0.0005, 0.005, 0.005, 0.05, 5.0):
            h.observe(v)
        assert h.count == 5
        assert h.buckets == [1, 2, 1, 1]  # last is the +Inf overflow
        assert abs(h.sum - 5.0605) < 1e-9
        assert h.max == 5.0
        # Cumulative counts, Prometheus-shaped.
        assert h.cumulative() == [(0.001, 1), (0.01, 3), (0.1, 4),
                                  (float("inf"), 5)]

    def test_quantiles_interpolate_within_buckets(self):
        h = Histogram("h", bounds=(1.0, 2.0, 4.0))
        for v in [0.5] * 50 + [1.5] * 40 + [3.0] * 10:
            h.observe(v)
        assert h.quantile(0.0) == 0.0
        assert 0.0 < h.quantile(0.5) <= 1.0
        assert 1.0 < h.quantile(0.9) <= 2.0
        assert 2.0 < h.quantile(0.99) <= 4.0
        pct = h.percentiles()
        assert set(pct) == {"p50", "p90", "p99"}
        assert pct["p50"] <= pct["p90"] <= pct["p99"]

    def test_quantile_capped_by_observed_max(self):
        h = Histogram("h", bounds=(1.0,))
        h.observe(30.0)  # lands in +Inf, whose upper edge is the max
        assert 1.0 < h.quantile(0.99) <= 30.0
        assert h.quantile(1.0) == 30.0

    def test_empty_histogram_is_all_zero(self):
        h = Histogram("h")
        assert h.bounds == DEFAULT_LATENCY_BOUNDS
        assert h.count == 0 and h.sum == 0.0
        assert h.quantile(0.5) == 0.0
        assert h.mean == 0.0

    def test_registry_histograms_keyed_by_labels(self):
        reg = MetricsRegistry()
        a = reg.histogram("latency", op="alias")
        b = reg.histogram("latency", op="chain")
        assert a is not b
        assert reg.histogram("latency", op="alias") is a
        a.observe(0.002)
        families = reg.histograms()
        assert [dict(h.labels) for h in families] \
            == [{"op": "alias"}, {"op": "chain"}]
        reg.reset()
        assert a.count == 0  # zeroed in place, handle stays live
        assert reg.histogram("latency", op="alias") is a


class TestTracerAmbientContext:
    def test_context_attaches_attrs_to_spans(self, tracer):
        with ambient(trace="t7"):
            with span("analyze", solver="s"):
                with span("inner"):
                    pass
        with span("outside"):
            pass
        analyze, inner = tracer.find("analyze")[0], tracer.find("inner")[0]
        assert analyze["attrs"] == {"solver": "s", "trace": "t7"}
        assert inner["attrs"] == {"trace": "t7"}
        assert "trace" not in tracer.find("outside")[0]["attrs"]

    def test_explicit_attrs_win_over_ambient(self, tracer):
        with ambient(trace="outer", extra=1):
            with ambient(trace="inner"):
                with span("s"):
                    pass
        span_ = tracer.find("s")[0]
        assert span_["attrs"] == {"trace": "inner", "extra": 1}

    def test_span_attr_beats_ambient(self, tracer):
        with ambient(trace="ambient"):
            with span("s", trace="explicit"):
                pass
        assert tracer.find("s")[0]["attrs"]["trace"] == "explicit"

    def test_out_of_order_exit_is_tolerated(self, tracer):
        a = ambient(trace="a")
        b = ambient(trace="b")
        a.__enter__()
        b.__enter__()
        a.__exit__(None, None, None)  # exits before b: must not raise
        with span("s"):
            pass
        assert tracer.find("s")[0]["attrs"]["trace"] == "b"
        b.__exit__(None, None, None)
        a.__exit__(None, None, None)  # double exit: must not raise


class TestUserTime:
    def test_process_user_s_includes_reaped_children(self):
        """Parallel compiles do their work in worker processes;
        ``user_s`` must count their CPU, not just the parent's."""
        import os

        t = os.times()
        assert abs(process_user_s() - (t.user + t.children_user)) < 0.5

    def test_parallel_compile_user_time_is_counted(self):
        """A --jobs build's span user time must reflect the children's
        work once they are reaped (the satellite fix this pins)."""
        from repro.engine.pipeline import Pipeline

        sources = {
            f"f{i}.c": f"int x{i}, *p{i}; "
                       f"void fn{i}(void) {{ p{i} = &x{i}; }}\n"
            for i in range(4)
        }
        with EVENTS.sink(Tracer()) as tracer:
            Pipeline(jobs=2).compile_units(sources)
        compile_span = tracer.find("compile")[0]
        # Children's CPU is only visible after wait(); the invariant that
        # must hold is that the measurement is well-formed, not negative.
        assert compile_span["user_s"] >= 0.0
