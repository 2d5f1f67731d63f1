"""Tests for the differential fuzzer: clean runs and injected bugs."""

import os

from repro.checker import FuzzConfig, run_fuzz
from repro.checker.fuzz import compile_program, run_battery, toggle_label
from repro.engine.events import EVENTS, MemorySink
from repro.solvers import SOLVERS, PreTransitiveSolver
from repro.synth.generator import generate
from repro.synth.profiles import get_profile


class TestBattery:
    def test_clean_program_no_failures(self):
        program = generate(get_profile("burlap", 0.005), seed=11)
        units = compile_program(program.header, program.files,
                                field_based=True)
        assert run_battery(units) == []

    def test_every_solve_is_an_analyze_span(self):
        program = generate(get_profile("burlap", 0.005), seed=11)
        units = compile_program(program.header, program.files,
                                field_based=True)
        with EVENTS.sink(MemorySink()) as sink:
            run_battery(units)
        ends = [e for e in sink.of_kind("stage")
                if e.stage == "analyze" and e.phase == "end"]
        assert len(ends) == len(sink.of_kind("solver.end")) \
            == len(SOLVERS) + 1

    def test_toggle_label(self):
        assert toggle_label((True, False, True, False)) == \
            "cache=on,cycles=off,diff=on,demand=off"


class TestCleanFuzz:
    def test_seeded_campaign_passes(self, tmp_path):
        config = FuzzConfig(
            seed=7, iterations=3, max_units=2, scale=0.005,
            profiles=("burlap", "vortex"), out_dir=str(tmp_path),
        )
        outcome = run_fuzz(config)
        assert outcome.ok
        assert outcome.iterations_run == 3
        assert outcome.solver_runs == 3 * (len(SOLVERS) + 1)
        assert outcome.oracle_checks == 3 * (len(SOLVERS) + 1)
        assert os.listdir(str(tmp_path)) == []  # no repro written

    def test_determinism(self, tmp_path):
        config = FuzzConfig(seed=3, iterations=2, max_units=2, scale=0.005,
                            profiles=("burlap",), out_dir=str(tmp_path))
        first = run_fuzz(config)
        second = run_fuzz(config)
        assert first.ok and second.ok
        assert first.solver_runs == second.solver_runs


class TestInjectedBug:
    def test_dropped_edge_is_caught_and_shrunk(self, tmp_path, monkeypatch):
        """The satellite's acceptance case: silently dropping one graph
        edge from the pretransitive solver must be detected (differential
        disagreement and/or oracle violation) and the failing program must
        shrink to a handful of assignments."""
        original = PreTransitiveSolver._add_edge

        def buggy(self, src, dst):
            if not getattr(self, "_dropped_one", False):
                self._dropped_one = True
                return False  # swallow the first edge this instance sees
            return original(self, src, dst)

        monkeypatch.setattr(PreTransitiveSolver, "_add_edge", buggy)
        config = FuzzConfig(
            seed=20260806, iterations=16, max_units=2, scale=0.01,
            out_dir=str(tmp_path),
        )
        outcome = run_fuzz(config)
        assert not outcome.ok
        failure = outcome.failure
        assert failure.descriptions
        shrink = failure.shrink
        assert shrink is not None
        assert 0 < shrink.assignment_lines <= 5
        assert os.path.isdir(failure.repro_dir)
        assert os.path.exists(os.path.join(failure.repro_dir, "REPRO.md"))
        assert os.path.exists(os.path.join(failure.repro_dir, "synth.h"))
        with open(os.path.join(failure.repro_dir, "REPRO.md")) as f:
            repro = f.read()
        assert "repro-cla check" in repro
        assert str(failure.case_seed) in repro
