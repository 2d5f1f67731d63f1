"""Serve-daemon telemetry tests: trace ids, rings, slow-query log,
the metrics/traces ops, and the resource ticker."""

import gc
import time

import pytest

from repro.engine.events import EVENTS, MemorySink
from repro.engine.obs import MetricsRegistry, Span
from repro.serve import ResourceTicker, ServeSession, TraceRing

from .conftest import make_workspace


@pytest.fixture
def slow_session(tmp_path):
    """A session whose slow-query budget every request exceeds."""
    ws = make_workspace(tmp_path)
    s = ServeSession(workspace=ws, slow_query_ms=0.0)
    yield s
    s.close()
    ws.close()


class TestTraceIds:
    def test_client_trace_rides_envelope_and_event(self, session):
        with EVENTS.sink(MemorySink()) as sink:
            response = session.request(
                "points-to", {"name": "mine"}, trace="req-9"
            )
        assert response["trace"] == "req-9"
        (event,) = sink.of_kind("serve.query")
        assert event.trace == "req-9"
        assert event.op == "points-to"

    def test_generated_trace_ids_are_sequential(self, session):
        first = session.request("ping")["trace"]
        second = session.request("ping")["trace"]
        n = int(first.removeprefix("t"))
        assert second == f"t{n + 1}"

    def test_trace_id_reaches_nested_spans(self, session):
        with EVENTS.sink(MemorySink()) as sink:
            session.request("chain", {"target": "shared"}, trace="chain-1")
        depend = [e for e in sink.of_kind("stage") if e.stage == "depend"]
        assert [e.phase for e in depend] == ["begin", "end"]
        assert all(e.attrs["trace"] == "chain-1" for e in depend)
        assert depend[1].attrs["target"] == "shared"

    def test_depend_span_says_who_built_the_reverse_index(self, session):
        """The first chain of a generation builds the reverse points-to
        index and the later ones reuse it; an update starts a generation
        whose first chain builds it again."""
        from .conftest import SOURCE_B_GROWN

        def chain(target):
            with EVENTS.sink(MemorySink()) as sink:
                assert session.request("chain", {"target": target})["ok"]
            (end,) = [e for e in sink.of_kind("stage")
                      if e.stage == "depend" and e.phase == "end"]
            return (end.attrs["reverse_index_built"],
                    end.attrs["reverse_index_pairs"])

        pts = session._result.pts
        pairs = sum(len(pts[p]) for p in pts)
        assert chain("shared") == (True, pairs) and pairs > 0
        assert chain("gp") == (False, pairs)
        assert session.request(
            "update", {"file": "b.c", "text": SOURCE_B_GROWN})["ok"]
        pts = session._result.pts
        grown = sum(len(pts[p]) for p in pts)
        assert grown > pairs
        assert chain("shared") == (True, grown)
        assert chain("mine") == (False, grown)

    def test_update_spans_carry_the_trace(self, session):
        from .conftest import SOURCE_B_GROWN

        with EVENTS.sink(MemorySink()) as sink:
            session.request(
                "update", {"file": "b.c", "text": SOURCE_B_GROWN},
                trace="up-1",
            )
        spans = {e.stage for e in sink.of_kind("stage")
                 if e.phase == "end" and e.attrs.get("trace") == "up-1"}
        assert {"compile", "unit", "link", "analyze"} <= spans, \
            "the update's spans lost its trace id"

    def test_cache_hit_reuses_no_spans_but_keeps_trace(self, session):
        session.request("chain", {"target": "shared"}, trace="a")
        with EVENTS.sink(MemorySink()) as sink:
            response = session.request("chain", {"target": "shared"},
                                       trace="b")
        assert response["cache_hit"]
        assert response["trace"] == "b"
        assert sink.of_kind("stage") == []

    def test_no_sink_keeps_no_spans(self, session):
        """With nothing listening, serving opens no span objects at all,
        so a long-lived daemon keeps no per-request telemetry."""
        from .conftest import SOURCE_B, SOURCE_B_GROWN

        assert not EVENTS
        for i in range(100):
            response = session.request(
                "chain", {"target": "shared", "limit": i})
            assert response["ok"] and not response["cache_hit"]
        for i in range(10):
            text = SOURCE_B_GROWN if i % 2 == 0 else SOURCE_B
            assert session.request(
                "update", {"file": "b.c", "text": text})["ok"]
        gc.collect()
        assert sum(isinstance(o, Span) for o in gc.get_objects()) == 0


class TestTracesOp:
    def test_recent_ring_most_recent_first(self, session):
        session.request("ping", trace="one")
        session.request("points-to", {"name": "mine"}, trace="two")
        result = session.request("traces")["result"]
        # The traces op itself is not yet recorded when it renders.
        assert [r["trace"] for r in result["recent"]] == ["two", "one"]
        assert result["recent"][0]["op"] == "points-to"
        assert result["recent"][0]["ok"]
        assert result["seen"] == 2
        assert result["slow"] == []
        assert result["slow_query_ms"] is None

    def test_limit_validation(self, session):
        response = session.request("traces", {"limit": -1})
        assert not response["ok"]
        assert "limit" in response["error"]
        response = session.request("traces", {"limit": 1})
        assert len(response["result"]["recent"]) == 1

    def test_errors_carry_the_message(self, session):
        session.request("points-to", {}, trace="bad")
        (record,) = session.request("traces")["result"]["recent"]
        assert record["trace"] == "bad"
        assert not record["ok"]
        assert "name" in record["error"]


class TestSlowQueryLog:
    def test_slow_queries_land_in_log_and_ledger(self, slow_session):
        with EVENTS.sink(MemorySink()) as sink:
            slow_session.request("ping", trace="s1")
        (slow,) = sink.of_kind("serve.slow_query")
        assert slow.trace == "s1"
        assert slow.threshold_ms == 0.0
        result = slow_session.request("traces")["result"]
        assert result["slow_query_ms"] == 0.0
        assert [r["trace"] for r in result["slow"]][-1] == "s1"
        assert all("threshold_ms" in r for r in result["slow"])

    def test_fast_budget_never_fires_without_threshold(self, session):
        with EVENTS.sink(MemorySink()) as sink:
            session.request("ping")
        assert sink.of_kind("serve.slow_query") == []


class TestMetricsOp:
    def test_scrape_body_over_stdio(self, session):
        session.request("points-to", {"name": "mine"})
        result = session.request("metrics")["result"]
        assert result["content_type"].startswith("text/plain")
        assert "serve_request_seconds_bucket" in result["text"]
        assert 'op="points-to"' in result["text"]
        assert result["counters"]["serve.queries"] >= 1
        assert isinstance(result["gauges"], dict)

    def test_stats_percentiles_come_from_the_histogram(self, session):
        for _ in range(8):
            session.request("points-to", {"name": "mine"})
        stats = session.request("stats")["result"]
        pt = stats["queries"]["points-to"]
        assert pt["count"] == 8
        assert 0.0 <= pt["p50_ms"] <= pt["p90_ms"] <= pt["p99_ms"]
        assert pt["p99_ms"] <= pt["max_ms"] * 1.001 + 1e-9
        assert stats["uptime_s"] >= 0.0
        assert stats["slow_query_ms"] is None

    def test_deferred_accounting_drains_on_read(self, session):
        session.request("ping")
        assert len(session._pending) == 1  # deferred, not yet aggregated
        stats = session.request("stats")["result"]
        assert stats["queries"]["ping"]["count"] == 1  # the read drained
        session.request("ping")
        session.flush_telemetry()
        assert session._pending == []
        assert session._latency["ping"].count == 2


class TestTraceRing:
    def test_capacity_drops_oldest(self):
        ring = TraceRing(capacity=2)
        for i in range(5):
            ring.append({"n": i})
        assert len(ring) == 2
        assert ring.appended == 5
        assert [r["n"] for r in ring.snapshot()] == [4, 3]
        assert [r["n"] for r in ring.snapshot(limit=1)] == [4]

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            TraceRing(capacity=-1)

    def test_zero_capacity_is_disabled_but_counts(self):
        ring = TraceRing(capacity=0)
        for i in range(3):
            ring.append({"n": i})
        assert len(ring) == 0
        assert ring.snapshot() == []
        assert ring.appended == 3


class TestResourceTicker:
    def test_sample_sets_gauges(self):
        reg = MetricsRegistry()
        ticker = ResourceTicker(interval=60.0, registry=reg)
        ticker.sample(lag_s=0.25)
        gauges = reg.gauges(include_zero=True)
        assert gauges["process.rss_mb"] > 0.0
        assert gauges["process.uptime_s"] >= 0.0
        assert gauges["serve.tick.lag_s"] == 0.25
        assert reg.snapshot()["serve.ticks"] == 1

    def test_start_samples_immediately_and_stop_is_prompt(self):
        reg = MetricsRegistry()
        started = time.perf_counter()
        with ResourceTicker(interval=3600.0, registry=reg):
            assert reg.snapshot()["serve.ticks"] == 1
            assert "process.rss_mb" in reg.gauges()
        # stop() must not wait out the hour-long interval.
        assert time.perf_counter() - started < 30.0

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            ResourceTicker(interval=0.0)
