"""Tests for the synthetic benchmark generator."""

import pytest

from repro.ir import assignment_mix
from repro.synth import BENCHMARK_ORDER, PROFILES, generate, get_profile


class TestProfiles:
    def test_all_table2_rows_present(self):
        assert set(BENCHMARK_ORDER) == set(PROFILES)
        assert len(BENCHMARK_ORDER) == 8

    def test_table2_numbers_verbatim(self):
        # Spot-check against the paper's Table 2.
        gimp = PROFILES["gimp"]
        assert gimp.variables == 131552
        assert gimp.copies == 303810
        assert gimp.addrs == 25578
        assert gimp.stores == 5943
        assert gimp.store_loads == 2397
        assert gimp.loads == 6428
        lucent = PROFILES["lucent"]
        assert lucent.variables == 96509
        assert lucent.addrs == 72355

    def test_scaled_preserves_name(self):
        p = get_profile("gcc", scale=0.1)
        assert p.name == "gcc"
        assert p.copies == round(62556 * 0.1)

    def test_scale_one_is_identity(self):
        assert get_profile("gcc", 1.0) is PROFILES["gcc"]

    def test_scaled_minimums(self):
        p = get_profile("nethack", scale=0.0001)
        assert p.copies >= 16
        assert p.addrs >= 8
        assert p.files >= 2

    def test_unknown_profile(self):
        with pytest.raises(KeyError):
            get_profile("quake")

    def test_total_assignments(self):
        p = PROFILES["nethack"]
        assert p.total_assignments == 9118 + 1115 + 30 + 34 + 105


class TestDeterminism:
    def test_same_seed_same_output(self):
        a = generate("nethack", scale=0.05, seed=7)
        b = generate("nethack", scale=0.05, seed=7)
        assert a.files == b.files
        assert a.header == b.header

    def test_different_seed_different_output(self):
        a = generate("nethack", scale=0.05, seed=7)
        b = generate("nethack", scale=0.05, seed=8)
        assert a.files != b.files


class TestGeneratedCode:
    @pytest.fixture(scope="class")
    def program(self):
        return generate("burlap", scale=0.08, seed=3)

    def test_compiles_cleanly(self, program):
        units = program.project().units()
        assert len(units) == len(program.files)

    def test_mix_matches_profile(self, program):
        store = program.project().store()
        mix = assignment_mix(store.all_assignments())
        want = program.profile
        # Copies gain call-lowering traffic; others should be within 20%.
        assert mix["x = y"] >= want.copies
        for label, target in [
            ("x = &y", want.addrs), ("*x = y", want.stores),
            ("*x = *y", want.store_loads), ("x = *y", want.loads),
        ]:
            assert abs(mix[label] - target) <= max(4, target * 0.35), label

    def test_multi_file(self, program):
        assert len(program.files) >= 2

    def test_has_function_pointers(self, program):
        store = program.project().store()
        assert any(o.is_funcptr for o in store.objects.values())

    def test_source_lines_positive(self, program):
        assert program.source_lines() > 100

    def test_write_to_disk(self, program, tmp_path):
        paths = program.write_to(str(tmp_path))
        assert len(paths) == len(program.files)
        assert (tmp_path / "synth.h").exists()

    def test_disk_copy_compiles_via_directory_builder(self, program, tmp_path):
        from repro.driver.incremental import Workspace

        program.write_to(str(tmp_path))
        project = Workspace.from_directory(str(tmp_path))
        result = project.points_to()
        assert result.pointer_variables() > 0

    def test_analysis_is_deterministic(self, program):
        r1 = program.project().points_to()
        r2 = program.project().points_to()
        assert r1.points_to_relations() == r2.points_to_relations()


class TestShapeKnobs:
    def test_join_factor_inflates_relations(self):
        import dataclasses

        base = get_profile("nethack", 0.2)
        quiet = dataclasses.replace(base, join_factor=0.0)
        noisy = dataclasses.replace(base, join_factor=0.8)
        r_quiet = generate(quiet, seed=5).project().points_to()
        r_noisy = generate(noisy, seed=5).project().points_to()
        assert (r_noisy.points_to_relations()
                > 2 * r_quiet.points_to_relations())

    def test_field_independent_blowup_on_struct_heavy_profile(self):
        program = generate("gimp", scale=0.03, seed=5)
        fb = program.project(field_based=True).points_to()
        fi = program.project(field_based=False).points_to()
        assert (fi.points_to_relations()
                > 1.5 * fb.points_to_relations())

    def test_int_fraction_creates_unloaded_assignments(self):
        program = generate("gcc", scale=0.05, seed=5)
        project = program.project()
        project.points_to()
        stats = project.store().stats
        assert stats.loaded < stats.in_file
