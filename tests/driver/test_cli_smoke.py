"""End-to-end smoke test: every ``repro-cla`` subcommand, including the
observability flags (``--trace``/``--stats``) and parallel compiles
(``--jobs``)."""

import json

import pytest

from repro.driver.cli import main

A_C = "int x, *p; void f(void) { p = &x; }\n"
B_C = ("extern int *p; int *q; short tgt, out;\n"
       "void g(void) { q = p; out = tgt; }\n")


@pytest.fixture
def sources(tmp_path):
    a = tmp_path / "a.c"
    a.write_text(A_C)
    b = tmp_path / "b.c"
    b.write_text(B_C)
    return tmp_path, str(a), str(b)


@pytest.fixture
def database(sources):
    tmp_path, a, b = sources
    obj_dir = str(tmp_path / "objs")
    out = str(tmp_path / "prog.cla")
    assert main(["compile", a, b, "-o", obj_dir]) == 0
    assert main(["link", f"{obj_dir}/a.o", f"{obj_dir}/b.o", "-o", out]) == 0
    return out


class TestCompileSmoke:
    def test_single_source_to_object(self, sources, capsys):
        tmp_path, a, _ = sources
        assert main(["compile", a, "-o", str(tmp_path / "a.o")]) == 0
        assert "primitive assignments" in capsys.readouterr().out

    def test_multi_source_to_directory(self, sources, capsys):
        tmp_path, a, b = sources
        obj_dir = tmp_path / "objs"
        assert main(["compile", a, b, "-o", str(obj_dir)]) == 0
        out = capsys.readouterr().out
        assert (obj_dir / "a.o").exists() and (obj_dir / "b.o").exists()
        assert out.count("primitive assignments") == 2

    def test_jobs_flag(self, sources, capsys):
        tmp_path, a, b = sources
        obj_dir = tmp_path / "objs2"
        assert main(["compile", a, b, "-o", str(obj_dir),
                     "--jobs", "2"]) == 0
        assert (obj_dir / "a.o").exists() and (obj_dir / "b.o").exists()

    def test_basename_collision_rejected(self, tmp_path, capsys):
        d1, d2 = tmp_path / "d1", tmp_path / "d2"
        d1.mkdir(), d2.mkdir()
        (d1 / "same.c").write_text(A_C)
        (d2 / "same.c").write_text(B_C)
        rc = main(["compile", str(d1 / "same.c"), str(d2 / "same.c"),
                   "-o", str(tmp_path / "objs")])
        assert rc == 1
        assert "collide" in capsys.readouterr().err


class TestLinkSmoke:
    def test_link(self, database, capsys):
        pass  # the fixture exercised compile+link end to end


class TestAnalyzeSmoke:
    def test_database(self, database, capsys):
        assert main(["analyze", database, "--query", "q"]) == 0
        out = capsys.readouterr().out
        assert "solver=pretransitive" in out
        assert "pts(q) = {x}" in out

    def test_c_sources_directly(self, sources, capsys):
        _, a, b = sources
        assert main(["analyze", a, b, "--query", "q"]) == 0
        out = capsys.readouterr().out
        assert "pts(q) = {x}" in out

    def test_mixed_inputs_rejected(self, sources, database, capsys):
        _, a, _ = sources
        assert main(["analyze", a, database]) == 2
        assert "mix" in capsys.readouterr().err

    def test_max_core_assignments_flag(self, database, capsys):
        assert main(["analyze", database, "--query", "q",
                     "--max-core-assignments", "2"]) == 0
        out = capsys.readouterr().out
        # Same analysis result under the memory bound …
        assert "pts(q) = {x}" in out
        # … plus the cache accounting line.
        assert "cache: budget=2" in out
        assert "reloads=" in out

    def test_max_core_assignments_zero(self, database, capsys):
        assert main(["analyze", database, "--query", "q",
                     "--max-core-assignments", "0"]) == 0
        assert "pts(q) = {x}" in capsys.readouterr().out

    def test_stats_flag(self, database, capsys):
        assert main(["analyze", database, "--stats"]) == 0
        out = capsys.readouterr().out
        assert "stats[pretransitive]:" in out
        assert "in_core/loaded/in_file=" in out

    def test_stats_uniform_across_solvers(self, database, capsys):
        for solver in ("pretransitive", "transitive", "steensgaard",
                       "onelevel"):
            assert main(["analyze", database, "--solver", solver,
                         "--stats"]) == 0
            assert f"stats[{solver}]:" in capsys.readouterr().out

    def test_trace_has_nested_stage_spans(self, sources, tmp_path, capsys):
        _, a, b = sources
        trace = tmp_path / "out.json"
        assert main(["analyze", a, b, "--trace", str(trace),
                     "--stats"]) == 0
        doc = json.loads(trace.read_text())
        assert doc["schema"] == 1
        (session,) = doc["trace"]
        assert session["name"] == "session"
        stages = [c["name"] for c in session["children"]]
        assert stages == ["compile", "link", "analyze"]
        units = [c["name"] for c in session["children"][0]["children"]]
        assert units == ["unit", "unit"]
        assert doc["counters"].get("cla.assignments_loaded", 0) > 0

    def test_trace_jsonl(self, database, tmp_path):
        trace = tmp_path / "out.jsonl"
        assert main(["analyze", database, "--trace", str(trace)]) == 0
        records = [json.loads(line)
                   for line in trace.read_text().splitlines()]
        assert any(r["name"] == "analyze" for r in records)


class TestDependSmoke:
    def test_depend(self, database, capsys):
        assert main(["depend", database, "--target", "tgt"]) == 0
        assert "dependent objects" in capsys.readouterr().out

    def test_depend_trace_and_stats(self, database, tmp_path, capsys):
        trace = tmp_path / "dep.json"
        assert main(["depend", database, "--target", "tgt",
                     "--trace", str(trace), "--stats"]) == 0
        out = capsys.readouterr().out
        assert "stats[pretransitive]:" in out
        doc = json.loads(trace.read_text())
        (session,) = doc["trace"]
        stages = [c["name"] for c in session["children"]]
        assert stages == ["analyze", "depend"]

    def test_depend_unknown_target(self, database, capsys):
        assert main(["depend", database, "--target", "nope"]) == 1
        assert "no object named" in capsys.readouterr().err

    def test_depend_with_cache_budget(self, database, capsys):
        assert main(["depend", database, "--target", "tgt",
                     "--max-core-assignments", "3"]) == 0
        out = capsys.readouterr().out
        assert "dependent objects" in out
        assert "cache: budget=3" in out


class TestCallgraphSmoke:
    def test_callgraph(self, database, capsys):
        assert main(["callgraph", database]) == 0
        assert "functions" in capsys.readouterr().out


class TestDumpSmoke:
    def test_dump(self, database, capsys):
        assert main(["dump", database, "--statics"]) == 0
        assert "CLA executable" in capsys.readouterr().out


class TestSynthSmoke:
    def test_synth(self, tmp_path, capsys):
        out_dir = str(tmp_path / "synth")
        assert main(["synth", "nethack", "--scale", "0.02",
                     "-o", out_dir]) == 0
        assert "files" in capsys.readouterr().out


class TestTransformSmoke:
    def test_ovs(self, database, tmp_path, capsys):
        out = str(tmp_path / "opt.cla")
        assert main(["transform", database, out, "--ovs"]) == 0
        assert "assignments" in capsys.readouterr().out


class TestLedgerSmoke:
    """The run-ledger surface: --events/--progress/--profile, report,
    and the bench-compare regression gate."""

    def test_events_and_progress_and_profile(self, sources, tmp_path,
                                             capsys):
        _, a, b = sources
        events = tmp_path / "e.jsonl"
        prof = tmp_path / "p.prof"
        assert main(["analyze", a, b, "--progress",
                     "--events", str(events),
                     "--profile", str(prof), "--stats"]) == 0
        captured = capsys.readouterr()
        # Profiling: dump written, attribution table on stdout.
        assert prof.exists()
        assert "profile: top" in captured.out
        # Progress narrative goes to stderr, not stdout.
        assert "[analyze pretransitive] round" in captured.err
        assert "done in" in captured.err
        # The JSONL ledger covers every producer layer.
        from repro.engine.events import read_events

        kinds = {r["kind"] for r in read_events(str(events))}
        assert {"stage", "compile.unit", "solver.begin", "solver.round",
                "solver.end", "cla.load"} <= kinds

    @pytest.mark.parametrize("solver", ["pretransitive", "transitive",
                                        "steensgaard", "onelevel"])
    def test_every_solver_emits_round_events(self, database, tmp_path,
                                             solver):
        from repro.engine.events import read_events

        events = tmp_path / f"{solver}.jsonl"
        assert main(["analyze", database, "--solver", solver,
                     "--events", str(events)]) == 0
        records = read_events(str(events))
        rounds = [r for r in records if r["kind"] == "solver.round"]
        assert rounds and all(r["solver"] == solver for r in rounds)
        ends = [r for r in records if r["kind"] == "solver.end"]
        assert len(ends) == 1 and ends[0]["rounds"] >= 1

    def test_sinks_detach_after_run(self, database, tmp_path):
        from repro.engine.events import EVENTS

        events = tmp_path / "e.jsonl"
        assert main(["analyze", database, "--events", str(events)]) == 0
        assert not EVENTS  # bus must be falsy again once the CLI exits

    def test_depend_supports_ledger_flags(self, database, tmp_path,
                                          capsys):
        events = tmp_path / "dep.jsonl"
        assert main(["depend", database, "--target", "tgt",
                     "--events", str(events), "--progress"]) == 0
        from repro.engine.events import read_events

        kinds = {r["kind"] for r in read_events(str(events))}
        assert "solver.round" in kinds and "stage" in kinds

    def test_report_from_run_artifacts(self, sources, tmp_path, capsys):
        _, a, b = sources
        trace = tmp_path / "t.json"
        events = tmp_path / "e.jsonl"
        assert main(["analyze", a, b, "--trace", str(trace),
                     "--events", str(events)]) == 0
        capsys.readouterr()
        assert main(["report", "--trace", str(trace),
                     "--events", str(events)]) == 0
        out = capsys.readouterr().out
        assert "Run report" in out
        assert "Phases" in out
        assert "Convergence: pretransitive" in out
        assert "CLA load accounting" in out

    def test_ledger_alone_renders_the_trace_phases(self, sources, tmp_path,
                                                   capsys):
        """Every span reaches the ledger with its id and parent, so the
        report's Phases table has the same rows and nesting from
        ``--events`` alone as from ``--trace``."""
        from repro.engine.events import read_events

        _, a, b = sources
        trace = tmp_path / "t.json"
        events = tmp_path / "e.jsonl"
        assert main(["analyze", a, b, "--trace", str(trace),
                     "--events", str(events)]) == 0
        ends = [r for r in read_events(str(events))
                if r["kind"] == "stage" and r["phase"] == "end"]
        assert sorted(r["stage"] for r in ends) == [
            "analyze", "compile", "link", "session", "unit", "unit"]
        assert all({"id", "parent", "user_s", "rss_delta_mb"} <= set(r)
                   for r in ends)

        def phase_names(*flags):
            capsys.readouterr()
            assert main(["report", *flags]) == 0
            table = capsys.readouterr().out.split("\n\n")[1]
            lines = table.splitlines()
            assert lines[0].startswith("Phases")
            width = lines[2].index("  ")  # the phase column's rule
            return [line[:width] for line in lines[3:]]

        from_trace = phase_names("--trace", str(trace))
        assert from_trace == phase_names("--events", str(events))
        assert [name.strip() for name in from_trace] == [
            "session", "compile", "link", "analyze"]
        by_name = {r["stage"]: r for r in ends}
        session_id = by_name["session"]["id"]
        assert by_name["session"]["parent"] is None
        assert all(by_name[name]["parent"] == session_id
                   for name in ("compile", "link", "analyze"))
        assert by_name["unit"]["parent"] == by_name["compile"]["id"]

    def test_report_markdown_to_file(self, database, tmp_path, capsys):
        events = tmp_path / "e.jsonl"
        assert main(["analyze", database, "--events", str(events)]) == 0
        out_md = tmp_path / "report.md"
        assert main(["report", "--events", str(events),
                     "--format", "markdown", "-o", str(out_md)]) == 0
        text = out_md.read_text()
        assert text.startswith("# Run report")
        assert "| --- |" in text

    def test_report_without_inputs_is_usage_error(self, capsys):
        assert main(["report"]) == 2
        assert "at least one" in capsys.readouterr().err

    def _bench_doc(self, a_min):
        return {
            "schema": 1, "suite": "scaling",
            "benchmarks": {"test_solve": {"stats": {
                "min": a_min, "max": a_min, "mean": a_min, "stddev": 0.0,
                "median": a_min, "rounds": 5, "iterations": 1},
                "extra_info": {}}},
            "counters": {},
        }

    def test_bench_compare_detects_regression(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        new = tmp_path / "new.json"
        base.write_text(json.dumps(self._bench_doc(1.0)))
        new.write_text(json.dumps(self._bench_doc(1.5)))  # +50%
        assert main(["bench", "compare", str(base), str(new)]) == 1
        assert "regression" in capsys.readouterr().out
        # The CI mode downgrades the gate to a warning.
        assert main(["bench", "compare", str(base), str(new),
                     "--warn-only"]) == 0
        # Identical runs pass cleanly.
        assert main(["bench", "compare", str(base), str(base)]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_bench_compare_threshold_flag(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        new = tmp_path / "new.json"
        base.write_text(json.dumps(self._bench_doc(1.0)))
        new.write_text(json.dumps(self._bench_doc(1.2)))
        assert main(["bench", "compare", str(base), str(new),
                     "--threshold", "0.5"]) == 0
        assert main(["bench", "compare", str(base), str(new),
                     "--threshold", "0.1"]) == 1

    def test_bench_compare_usage_errors(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        base.write_text(json.dumps(self._bench_doc(1.0)))
        assert main(["bench", "compare", str(base)]) == 2
        assert "two" in capsys.readouterr().err
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["bench", "compare", str(base), str(bad)]) == 2
        assert main(["bench", "table1", str(base)]) == 2


class TestBenchSmoke:
    def test_bench_table1(self, capsys):
        assert main(["bench", "table1"]) == 0
        assert "Classification" in capsys.readouterr().out

    def test_bench_cache_table(self, capsys):
        assert main(["bench", "cache", "--scale", "0.02",
                     "--profile", "nethack"]) == 0
        out = capsys.readouterr().out
        assert "memory budget sweep" in out
        assert "unbounded" in out

    def test_bench_budget_flag_rejected_off_table(self, capsys):
        assert main(["bench", "table1",
                     "--max-core-assignments", "100"]) == 2
        assert "--max-core-assignments" in capsys.readouterr().err

    def test_bench_table3_with_budget(self, capsys):
        assert main(["bench", "table3", "--scale", "0.02",
                     "--profile", "nethack",
                     "--max-core-assignments", "100000"]) == 0
        assert "peak core" in capsys.readouterr().out

    def test_bench_trace_and_stats(self, tmp_path, capsys):
        trace = tmp_path / "bench.json"
        assert main(["bench", "table3", "--scale", "0.02",
                     "--profile", "nethack",
                     "--trace", str(trace), "--stats"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "solver.rounds=" in out  # published by the stats layer
        doc = json.loads(trace.read_text())
        assert doc["trace"][0]["name"] == "bench"
