"""Tests for the run-report renderer (trace + events + bench → tables)."""

import json

import pytest

from repro.driver.report import (
    MAX_CONVERGENCE_ROWS,
    convergence_rows,
    load_bench_series,
    load_trace,
    mloc_headline,
    percentile,
    render_report,
    serve_rows,
    sparkline,
    trend_rows,
)
from repro.driver.tables import render_markdown


def _bench_doc(suite, created, **mins):
    """A minimal BENCH document with one min-time stat per benchmark."""
    return {
        "schema": 1, "suite": suite, "created": created,
        "benchmarks": {
            name: {"stats": {"min": m, "max": m, "mean": m, "stddev": 0.0,
                             "median": m, "rounds": 3, "iterations": 1},
                   "extra_info": {}}
            for name, m in mins.items()
        },
        "counters": {},
    }


def _write_snapshots(trend_dir, docs):
    trend_dir.mkdir(parents=True, exist_ok=True)
    for i, doc in enumerate(docs):
        path = trend_dir / f"run{i}" / f"BENCH_{doc['suite']}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))


def _round(solver, n, edges, **extra):
    record = {"kind": "solver.round", "solver": solver, "round": n,
              "edges_added": edges, "delta_lvals": 0,
              "lval_cache_hits": 0, "lval_cache_misses": 0,
              "cache_hit_rate": 0.0, "cycles_collapsed": 0,
              "nodes_visited": 0, "constraints": 0, "blocks_loaded": 0,
              "ts": float(n)}
    record.update(extra)
    return record


def _write_events(path, records):
    lines = [json.dumps({"kind": "events.header", "schema": 1})]
    lines += [json.dumps(r) for r in records]
    path.write_text("\n".join(lines) + "\n")


def _write_trace(path):
    doc = {
        "schema": 1,
        "trace": [{
            "name": "session", "start_s": 0.0, "wall_s": 1.0,
            "user_s": 0.9, "rss_delta_mb": 2.0,
            "attrs": {"command": "analyze"},
            "children": [
                {"name": "compile", "start_s": 0.0, "wall_s": 0.4,
                 "user_s": 0.4, "rss_delta_mb": 1.0,
                 "attrs": {"files": 2},
                 "children": [
                     {"name": "unit", "start_s": 0.0, "wall_s": 0.2,
                      "user_s": 0.2, "rss_delta_mb": 0.5,
                      "attrs": {"file": "a.c"}, "children": []},
                 ]},
                {"name": "analyze", "start_s": 0.5, "wall_s": 0.5,
                 "user_s": 0.5, "rss_delta_mb": 1.0,
                 "attrs": {"solver": "pretransitive"}, "children": []},
            ],
        }],
        "counters": {"solver.edges_added": 42},
    }
    path.write_text(json.dumps(doc))


class TestSparkline:
    def test_shape(self):
        assert sparkline([]) == ""
        assert sparkline([0, 0]) == "▁▁"
        line = sparkline([1, 4, 8, 2, 0])
        assert len(line) == 5
        assert line[2] == "█"  # the max gets the tallest bar
        assert line[-1] == "▁"  # zero gets the floor


class TestConvergence:
    def test_groups_by_solver_in_ledger_order(self):
        records = [_round("b", 1, 5), _round("a", 1, 3), _round("b", 2, 0)]
        out = convergence_rows(records)
        assert [solver for solver, *_ in out] == ["b", "a"]
        _, headers, rows, curve = out[0]
        assert len(rows) == 2
        assert curve == sparkline([5, 0])

    def test_long_runs_are_elided(self):
        records = [_round("s", i, i) for i in range(1, 41)]
        (_, _headers, rows, _curve), = convergence_rows(records)
        assert len(rows) == MAX_CONVERGENCE_ROWS
        assert any("elided" in r[0] for r in rows)
        assert rows[-1][0] == "40"  # the tail survives


class TestRenderReport:
    def test_full_text_report(self, tmp_path):
        trace = tmp_path / "t.json"
        events = tmp_path / "e.jsonl"
        _write_trace(trace)
        _write_events(events, [
            {"kind": "stage", "stage": "analyze", "phase": "end",
             "attrs": {"solver": "pretransitive"}, "wall_s": 0.5,
             "ts": 1.0},
            {"kind": "solver.end", "solver": "pretransitive", "rounds": 2,
             "stats": {"edges_added": 42, "constraints": 7,
                       "assignments_in_core": 1, "assignments_loaded": 3,
                       "assignments_in_file": 3}, "ts": 1.0},
            _round("pretransitive", 1, 40),
            _round("pretransitive", 2, 2),
            {"kind": "cla.load", "assignments": 3, "blocks": 1,
             "in_core": 3, "loaded": 3, "reloads": 0, "ts": 0.1},
        ])
        text = render_report(trace_path=str(trace),
                             events_path=str(events))
        assert "Phases" in text
        assert "compile" in text and "analyze" in text
        assert "unit" not in text.split("Counters")[0]  # folded away
        assert "Counters" in text and "solver.edges_added" in text
        assert "Solver runs" in text
        assert "Convergence: pretransitive" in text
        assert "CLA load accounting" in text

    def test_events_only_report_reconstructs_phases(self, tmp_path):
        events = tmp_path / "e.jsonl"
        _write_events(events, [
            {"kind": "stage", "stage": "compile", "phase": "end",
             "attrs": {"files": 2}, "wall_s": 0.4, "ts": 0.4},
        ])
        text = render_report(events_path=str(events))
        assert "Phases (from ledger)" in text
        assert "files=2" in text

    def test_markdown_format(self, tmp_path):
        trace = tmp_path / "t.json"
        _write_trace(trace)
        text = render_report(trace_path=str(trace), fmt="markdown")
        assert text.startswith("# Run report")
        assert "### Phases" in text
        assert "| --- |" in text

    def test_bench_section(self, tmp_path):
        bench = tmp_path / "BENCH_scaling.json"
        bench.write_text(json.dumps({
            "schema": 1, "suite": "scaling",
            "benchmarks": {"test_x": {"stats": {
                "min": 0.5, "max": 0.6, "mean": 0.55, "stddev": 0.01,
                "median": 0.55, "rounds": 5, "iterations": 1},
                "extra_info": {}}},
            "counters": {},
        }))
        text = render_report(bench_paths=[str(bench)])
        assert "Bench: scaling" in text
        assert "test_x" in text and "0.5000s" in text

    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            render_report(fmt="html")

    def test_rejects_non_trace_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"benchmarks": {}}')
        with pytest.raises(ValueError, match="trace"):
            load_trace(str(path))


class TestMlocHeadline:
    @staticmethod
    def _doc(**points):
        doc = _bench_doc("mloc", 0.0, **dict.fromkeys(points, 1.0))
        for name, info in points.items():
            doc["benchmarks"][name]["extra_info"] = info
        return doc

    def test_solver_only_document(self):
        doc = self._doc(test_mloc_sequential={
            "source_loc": 124000, "solver_s": 0.09, "mloc_per_s": 1.377})
        assert mloc_headline(doc) == (
            "Headline: 1.38 MLoC/s of solver time (124,000 source lines "
            "in 0.090s, test_mloc_sequential)")

    def test_source_to_fixpoint_rate_beside_the_solver_rate(self):
        doc = self._doc(
            slow={"source_loc": 60000, "solver_s": 0.1, "mloc_per_s": 0.6,
                  "compile_s": 2.9, "source_mloc_per_s": 0.02},
            test_mloc_sequential={
                "source_loc": 60000, "solver_s": 0.05, "mloc_per_s": 1.2,
                "compile_s": 2.95, "source_mloc_per_s": 0.0200})
        assert mloc_headline(doc) == (
            "Headline: 1.20 MLoC/s of solver time, 0.02 MLoC/s source to "
            "fixpoint (60,000 source lines: 0.050s solve + 2.950s compile, "
            "test_mloc_sequential)")

    def test_other_suites_and_empty_points_have_none(self):
        assert mloc_headline(_bench_doc("scaling", 0.0, a=1.0)) is None
        assert mloc_headline(self._doc(a={"source_loc": 10})) is None


class TestPercentile:
    def test_exact_quantiles(self):
        assert percentile([], 0.5) == 0.0
        assert percentile([7.0], 0.99) == 7.0
        values = [float(i) for i in range(1, 101)]
        assert abs(percentile(values, 0.50) - 50.5) < 1e-9
        assert abs(percentile(values, 0.99) - 99.01) < 1e-9
        assert percentile(values, 1.0) == 100.0


class TestServeSection:
    def test_query_percentile_columns(self):
        records = [
            {"kind": "serve.query", "op": "points-to", "cache_hit": i > 0,
             "ok": True, "wall_ms": float(i + 1)}
            for i in range(10)
        ]
        records.append({"kind": "serve.query", "op": "points-to",
                        "cache_hit": False, "ok": False, "wall_ms": 50.0})
        (headers, rows), _reloads = serve_rows(records)
        assert headers[5:] == ["mean ms", "p50 ms", "p90 ms", "p99 ms",
                               "max ms"]
        (row,) = rows
        assert row[0] == "points-to" and row[1] == "11"
        assert row[4] == "1"  # one error
        p50, p90, p99, mx = map(float, row[6:])
        assert p50 <= p90 <= p99 <= mx == 50.0



class TestTrend:
    def test_regression_is_flagged(self, tmp_path):
        _write_snapshots(tmp_path / "hist", [
            _bench_doc("scaling", 100.0, test_a=1.0, test_b=2.0),
            _bench_doc("scaling", 200.0, test_a=1.01, test_b=2.0),
            _bench_doc("scaling", 300.0, test_a=1.5, test_b=1.2),
        ])
        text = render_report(trend_dir=str(tmp_path / "hist"))
        assert "Trend: scaling (3 snapshots" in text
        assert "1 regression(s) in scaling: test_a" in text
        lines = {line.split()[0]: line for line in text.splitlines()
                 if line.strip().startswith("test_")}
        assert "REGRESSION" in lines["test_a"]
        assert "1.50x" in lines["test_a"]
        assert "improved" in lines["test_b"]
        # The sparkline renders one glyph per snapshot.
        assert any(c in lines["test_a"] for c in "▁▂▃▄▅▆▇█")

    def test_snapshots_ordered_by_created_not_name(self, tmp_path):
        # run0 holds the NEWER snapshot: ordering must follow `created`.
        _write_snapshots(tmp_path / "hist", [
            _bench_doc("scaling", 900.0, test_a=3.0),
            _bench_doc("scaling", 100.0, test_a=1.0),
        ])
        by_suite, warnings = load_bench_series(str(tmp_path / "hist"))
        assert warnings == []
        mins = [doc["benchmarks"]["test_a"]["stats"]["min"]
                for doc in by_suite["scaling"]]
        assert mins == [1.0, 3.0]

    def test_mtime_fallback_for_unstamped_snapshots(self, tmp_path):
        doc = _bench_doc("scaling", 0, test_a=1.0)
        del doc["created"]
        _write_snapshots(tmp_path / "hist", [doc])
        by_suite, warnings = load_bench_series(str(tmp_path / "hist"))
        assert warnings == []
        assert len(by_suite["scaling"]) == 1

    def test_small_absolute_deltas_are_not_regressions(self):
        # 100us -> 140us is +40% but under the 50us noise floor.
        series = [_bench_doc("s", 1.0, test_t=100e-6),
                  _bench_doc("s", 2.0, test_t=140e-6)]
        _headers, rows = trend_rows(series)
        assert rows[0][-1] == "ok"

    def test_empty_directory_warns(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        text = render_report(trend_dir=str(empty))
        assert "warning: no BENCH_*.json snapshots" in text


class TestDegradation:
    def test_corrupt_bench_json_is_skipped_with_warning(self, tmp_path):
        good = tmp_path / "BENCH_ok.json"
        good.write_text(json.dumps(_bench_doc("ok", 1.0, test_a=1.0)))
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text("{truncated")
        text = render_report(bench_paths=[str(bad), str(good)])
        assert f"warning: skipped {bad}" in text
        assert "Bench: ok" in text  # the good artifact still renders

    def test_empty_events_ledger_is_skipped_with_warning(self, tmp_path):
        events = tmp_path / "events.jsonl"
        events.write_text("")
        trace = tmp_path / "t.json"
        _write_trace(trace)
        text = render_report(trace_path=str(trace),
                             events_path=str(events))
        assert f"warning: skipped {events}" in text
        assert "Phases" in text  # the trace sections still render

    def test_missing_trace_file_is_skipped_with_warning(self, tmp_path):
        missing = tmp_path / "nope.json"
        text = render_report(trace_path=str(missing))
        assert f"warning: skipped {missing}" in text

    def test_corrupt_snapshot_in_trend_dir_warns_but_renders(
        self, tmp_path
    ):
        hist = tmp_path / "hist"
        _write_snapshots(hist, [
            _bench_doc("scaling", 1.0, test_a=1.0),
            _bench_doc("scaling", 2.0, test_a=1.0),
        ])
        (hist / "BENCH_broken.json").write_text('{"schema": 99}')
        text = render_report(trend_dir=str(hist))
        assert "warning: skipped" in text and "BENCH_broken" in text
        assert "Trend: scaling (2 snapshots" in text


class TestMarkdownTable:
    def test_escapes_pipes(self):
        text = render_markdown("T", ["a"], [["x|y"]])
        assert "x\\|y" in text
        assert text.splitlines()[0] == "### T"
