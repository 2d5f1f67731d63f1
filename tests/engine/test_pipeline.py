"""Pipeline and the Workspace over it: staged, traced
compile-link-analyze-depend."""

import pytest

from repro.driver.incremental import Workspace
from repro.engine.events import EVENTS
from repro.engine.obs import Tracer
from repro.engine.pipeline import (
    CompileOptions,
    Pipeline,
    read_source,
    resolve_jobs,
)

A_C = "int x, *p; void f(void) { p = &x; }\n"
B_C = ("extern int *p; int *q; short tgt, out;\n"
       "void g(void) { q = p; out = tgt; }\n")


class TestStageSpans:
    def test_session_traces_all_stages(self):
        session = Workspace()
        session.add_source("a.c", A_C).add_source("b.c", B_C)
        with EVENTS.sink(Tracer()) as tracer:
            result = session.points_to()
            session.dependence("tgt")
        assert result.points_to("q") == frozenset({"x"})
        for stage in ("compile", "link", "analyze", "depend"):
            assert tracer.find(stage), f"missing span {stage!r}"
        compile_span = tracer.find("compile")[0]
        units = [c for c in compile_span["children"] if c["name"] == "unit"]
        assert [u["attrs"]["file"] for u in units] == ["a.c", "b.c"]
        assert compile_span["attrs"]["assignments"] > 0
        analyze = tracer.find("analyze")[0]
        assert analyze["attrs"]["solver"] == "pretransitive"
        assert analyze["attrs"]["assignments_in_file"] > 0

    def test_disk_roundtrip_traced(self, tmp_path):
        pipeline = Pipeline()
        src = tmp_path / "a.c"
        src.write_text(A_C)
        obj = str(tmp_path / "a.o")
        db = str(tmp_path / "prog.cla")
        with EVENTS.sink(Tracer()) as tracer:
            pipeline.compile({str(src): read_source(str(src))},
                             {str(src): obj})
            pipeline.link_objects([obj], db)
            with pipeline.open_database(db) as store:
                result = pipeline.analyze(store)
        assert result.points_to("p") == frozenset({"x"})
        assert tracer.find("compile") and tracer.find("link")
        assert tracer.find("analyze")

    def test_unknown_solver_raises(self):
        pipeline = Pipeline()
        store = pipeline.link_units(
            pipeline.compile_units({"a.c": A_C})
        )
        with pytest.raises(ValueError, match="unknown solver"):
            pipeline.analyze(store, "nonsense")

    def test_depend_unknown_target_raises(self):
        session = Workspace()
        session.add_source("a.c", A_C)
        with pytest.raises(KeyError, match="no object named"):
            session.dependence("does_not_exist")


class TestSessionCaching:
    def test_products_are_cached(self):
        session = Workspace()
        session.add_source("a.c", A_C)
        assert session.units() is session.units()
        assert session.store() is session.store()
        assert session.points_to() is session.points_to()

    def test_add_source_invalidates(self):
        session = Workspace()
        session.add_source("a.c", A_C)
        first = session.points_to()
        session.add_source("b.c", B_C)
        second = session.points_to()
        assert second is not first
        assert second.points_to("q") == frozenset({"x"})

    def test_solver_kwargs_key_cache(self):
        session = Workspace()
        session.add_source("a.c", A_C)
        demand = session.points_to("pretransitive")
        full = session.points_to("pretransitive", demand_load=False)
        assert demand is not full
        assert demand.pts == full.pts


class TestParallelCompile:
    def test_jobs_2_matches_serial(self):
        sources = {"a.c": A_C, "b.c": B_C}
        serial = Pipeline().compile_units(sources, jobs=1)
        parallel = Pipeline().compile_units(sources, jobs=2)
        assert [u.filename for u in serial] == [u.filename for u in parallel]
        for s, p in zip(serial, parallel):
            assert len(s.assignments) == len(p.assignments)
            assert set(s.objects) == set(p.objects)

    def test_parallel_objects_byte_identical(self, tmp_path):
        sources = {"a.c": A_C, "b.c": B_C}
        serial_out = {name: str(tmp_path / f"s_{name}.o") for name in sources}
        parallel_out = {name: str(tmp_path / f"p_{name}.o")
                        for name in sources}
        serial = Pipeline().compile(sources, serial_out, jobs=1)
        parallel = Pipeline().compile(sources, parallel_out, jobs=2)
        assert serial == parallel == [None, None]  # the files hold the IR
        for name in sources:
            with open(serial_out[name], "rb") as fs, \
                    open(parallel_out[name], "rb") as fp:
                assert fs.read() == fp.read()

    def test_session_jobs_parameter(self):
        session = Workspace(jobs=2)
        session.add_source("a.c", A_C).add_source("b.c", B_C)
        assert session.points_to().points_to("q") == frozenset({"x"})

    def test_mismatched_out_paths_raise(self):
        with pytest.raises(ValueError, match="pair up"):
            Pipeline().compile({}, {"a.c": "a.o"})


class TestResolveJobs:
    def test_none_means_all_cores(self):
        assert resolve_jobs(None) >= 1

    def test_clamped_to_one(self):
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-3) == 1
        assert resolve_jobs(4) == 4


class TestOptionsPropagate:
    def test_pipeline_options_reach_the_solver_inputs(self):
        options = CompileOptions(field_based=False, heap_model="single",
                                 predefined={"N": "1"})
        session = Workspace(options=options)
        assert session.options == options
        assert session.pipeline.options is session.options
        session.add_source("a.c", A_C)
        assert session.points_to().points_to("p") == frozenset({"x"})
