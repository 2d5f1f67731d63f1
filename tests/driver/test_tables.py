"""Tests for the table-regeneration harness itself."""

import pytest

from repro.driver import tables
from repro.engine.events import EVENTS, MemorySink


class TestPaperConstants:
    def test_paper_table3_rows_complete(self):
        assert set(tables.PAPER_TABLE3) == {
            "nethack", "burlap", "vortex", "emacs", "povray", "gcc",
            "gimp", "lucent",
        }

    def test_paper_table3_verbatim_spot_checks(self):
        assert tables.PAPER_TABLE3["gimp"][:2] == (45091, 15_298_000)
        assert tables.PAPER_TABLE3["lucent"][4:] == (4281, 101856, 349045)
        assert tables.PAPER_TABLE3["emacs"][1] == 11_232_000

    def test_paper_table4_consistent_with_table3(self):
        for name, (fb, _fi) in tables.PAPER_TABLE4.items():
            assert fb[0] == tables.PAPER_TABLE3[name][0], name
            assert fb[1] == tables.PAPER_TABLE3[name][1], name


class TestRowGenerators:
    def test_table1(self):
        headers, rows = tables.table1_rows()
        assert headers == ["Operations", "Argument 1", "Argument 2"]
        assert len(rows) == 6

    def test_table3_single_profile(self):
        headers, rows = tables.table3_rows(scale=0.05,
                                           profiles=["nethack"])
        assert len(rows) == 1
        assert rows[0][0].startswith("nethack@")
        assert headers[1] == "pointer"
        assert int(rows[0][1]) > 0

    def test_table4_single_profile(self):
        headers, rows = tables.table4_rows(scale=0.05,
                                           profiles=["nethack"])
        [row] = rows
        ratio = float(row[headers.index("rel ratio")])
        assert ratio > 0

    def test_solver_rows_cover_all_solvers(self):
        from repro.solvers import SOLVERS

        headers, rows = tables.solver_rows(scale=0.05,
                                           profiles=["nethack"])
        for solver in SOLVERS:
            assert f"{solver}:utime" in headers

    def test_table3_under_budget_bounds_peak(self):
        budget = 100_000
        headers, rows = tables.table3_rows(
            scale=0.05, profiles=["nethack"], max_core_assignments=budget)
        [row] = rows
        in_core = int(row[headers.index("in core")])
        loaded = int(row[headers.index("loaded")])
        in_file = int(row[headers.index("in file")])
        peak = int(row[headers.index("peak core")])
        assert in_core <= loaded <= in_file
        assert in_core <= peak <= budget

    def test_cache_rows_budget_sweep(self):
        headers, rows = tables.cache_rows(scale=0.05,
                                          profiles=["nethack"])
        assert len(rows) == 4
        i_budget = headers.index("budget")
        i_peak = headers.index("peak core")
        i_reloads = headers.index("reloads")
        assert rows[0][i_budget] == "unbounded"
        # Unbounded: the depend-style reuse pass is all hits, no re-reads.
        assert int(rows[0][i_reloads]) == 0
        assert int(rows[0][headers.index("hits")]) > 0
        for row in rows[1:]:
            budget = int(row[i_budget])
            assert int(row[i_peak]) <= budget
            in_core = int(row[headers.index("in core")])
            loaded = int(row[headers.index("loaded")])
            in_file = int(row[headers.index("in file")])
            assert in_core <= loaded <= in_file
        # The statics-only budget retains no blocks: the reuse pass had
        # to re-read more than any roomier budget did.
        assert int(rows[-1][i_reloads]) >= int(rows[1][i_reloads])
        assert int(rows[-1][i_reloads]) > 0

    def test_demand_rows_modes(self):
        headers, rows = tables.demand_rows(scale=0.05,
                                           profiles=["nethack"])
        modes = {row[1] for row in rows}
        assert modes == {"demand", "full"}
        by_mode = {row[1]: int(row[3]) for row in rows}
        assert by_mode["demand"] <= by_mode["full"]

    def test_render(self):
        headers, rows = tables.table1_rows()
        out = tables.render("T", headers, rows)
        assert out.startswith("T\n")
        assert "Strong" in out


class TestTable3Shape:
    def test_table3_emacs_blowup_shape(self):
        """The join-point effect: the emacs profile produces far larger
        points-to relation counts per pointer than nethack/gcc (§5).
        Scale 0.03 is the smallest it holds at."""
        from repro.cla.store import MemoryStore
        from repro.solvers import PreTransitiveSolver
        from repro.synth import generate

        results = {}
        for profile in ("nethack", "gcc", "emacs"):
            units = generate(profile, scale=0.03, seed=42).project(
                field_based=True).units()
            result = PreTransitiveSolver(MemoryStore(units)).solve()
            results[profile] = (
                result.points_to_relations() / max(result.pointer_variables(), 1)
            )
        assert results["emacs"] > 10 * results["nethack"]
        assert results["emacs"] > 10 * results["gcc"]


class TestBuildDatabase:
    def test_pipeline_through_disk(self, tmp_path):
        from repro.cla.reader import DatabaseStore
        from repro.synth import generate

        program = generate("nethack", scale=0.03, seed=1)
        path = tables.build_database(program, str(tmp_path))
        with DatabaseStore.open(path) as database:
            assert database.linked
            assert database.stats.in_file > 0

    def test_preprocessed_size_positive(self):
        from repro.synth import generate

        program = generate("nethack", scale=0.02, seed=1)
        assert tables.preprocessed_size(program) > 1000


class TestAblationRows:
    def test_kernel_ablation(self):
        headers, rows = tables.ablation_rows(size=120)
        assert headers[:4] == ["kernel", "cache", "cycle elim", "diff"]
        blowup = [r for r in rows if r[0] == "blowup"]
        assert len(blowup) == 4
        baseline = blowup[0]
        assert baseline[1:3] == ["on", "on"]
        degraded = blowup[-1]
        assert degraded[1:3] == ["off", "off"]
        # Work factor column shows the blowup deterministically.
        work_factor = int(degraded[7].rstrip("x"))
        assert work_factor > 10

    def test_block_cache_rows(self):
        headers, rows = tables.ablation_rows(size=120)
        i_bc = headers.index("block cache")
        i_reloads = headers.index("reloads")
        cached = {r[i_bc]: r for r in rows if r[0] == "ladder+reuse"}
        assert set(cached) == {"unbounded", "0"}
        # Unbounded keeps everything: the reuse pass re-reads nothing.
        assert int(cached["unbounded"][i_reloads]) == 0
        # Budget 0 keeps nothing: every reuse re-request is a re-read.
        assert int(cached["0"][i_reloads]) > 0
        # Rows without a block cache report no reloads.
        for r in rows:
            if r[i_bc] == "off":
                assert int(r[i_reloads]) == 0

    def test_diff_propagation_rows(self):
        headers, rows = tables.ablation_rows(size=120)
        ladder = {r[3]: r for r in rows if r[0] == "ladder"}
        assert set(ladder) == {"on", "off"}
        processed_on = int(ladder["on"][8])
        processed_off = int(ladder["off"][8])
        skipped_on = int(ladder["on"][9])
        # Delta discipline: each (constraint, lval) pair processed once
        # (O(n)) instead of once per round (O(n^2)).
        assert processed_on == 120
        assert processed_off > 4 * processed_on
        assert skipped_on > 0
        assert int(ladder["off"][9]) == 0


class TestOneSpine:
    """Every solve of a table is a ``Pipeline.analyze``: one ``analyze``
    span per solve, so a bench trace attributes each solve's time."""

    @pytest.mark.parametrize("rows, solves", [
        (lambda: tables.ablation_rows(size=40), 8),
        (lambda: tables.demand_rows(scale=0.05, profiles=["nethack"]), 2),
    ], ids=["ablation", "demand"])
    def test_one_analyze_span_per_solve(self, rows, solves):
        with EVENTS.sink(MemorySink()) as sink:
            rows()
        ends = [e for e in sink.of_kind("stage")
                if e.stage == "analyze" and e.phase == "end"]
        assert len(ends) == len(sink.of_kind("solver.end")) == solves
