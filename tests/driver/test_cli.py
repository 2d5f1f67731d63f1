"""Tests for the repro-cla command-line interface."""

import pytest

from repro.driver.cli import main


@pytest.fixture
def sources(tmp_path):
    a = tmp_path / "a.c"
    a.write_text("int x, *p; void f(void) { p = &x; }\n")
    b = tmp_path / "b.c"
    b.write_text("extern int *p; int *q; short tgt, out;\n"
                 "void g(void) { q = p; out = tgt; }\n")
    return tmp_path, str(a), str(b)


@pytest.fixture
def database(sources):
    tmp_path, a, b = sources
    obj_a, obj_b = str(tmp_path / "a.o"), str(tmp_path / "b.o")
    out = str(tmp_path / "prog.cla")
    assert main(["compile", a, "-o", obj_a]) == 0
    assert main(["compile", b, "-o", obj_b]) == 0
    assert main(["link", obj_a, obj_b, "-o", out]) == 0
    return out


class TestCompileAndLink:
    def test_compile_reports_counts(self, sources, capsys):
        tmp_path, a, _ = sources
        assert main(["compile", a, "-o", str(tmp_path / "a.o")]) == 0
        out = capsys.readouterr().out
        assert "primitive assignments" in out

    def test_one_source_into_a_new_directory(self, sources, capsys):
        """An output path ending in a separator names a directory, also
        for one source and before the directory exists."""
        tmp_path, a, _ = sources
        out_dir = tmp_path / "out"
        assert main(["compile", a, "-o", str(out_dir) + "/"]) == 0
        assert sorted(p.name for p in out_dir.iterdir()) == ["a.o"]
        assert f"{out_dir / 'a.o'}: " in capsys.readouterr().out

    def test_compile_with_defines(self, tmp_path, capsys):
        src = tmp_path / "d.c"
        src.write_text("#if FEAT\nint on;\n#endif\n")
        assert main(["compile", str(src), "-o", str(tmp_path / "d.o"),
                     "-D", "FEAT"]) == 0

    def test_define_with_empty_value_is_empty(self, tmp_path, capsys):
        """As with gcc, ``-DNAME=`` defines NAME as empty and ``-DNAME``
        as 1."""
        src = tmp_path / "e.c"
        src.write_text("int marker = 1 EMPTY;\n")
        obj = str(tmp_path / "e.o")
        assert main(["compile", str(src), "-o", obj, "-DEMPTY="]) == 0
        assert main(["compile", str(src), "-o", obj, "-DEMPTY"]) == 2
        assert "expected ';', found '1'" in capsys.readouterr().err

    def test_compile_field_independent_flag(self, sources, capsys):
        tmp_path, a, _ = sources
        obj = str(tmp_path / "fi.o")
        assert main(["compile", a, "-o", obj, "--field-independent"]) == 0

    @pytest.mark.parametrize("model, shown", [
        ("field_based", "field-based"),
        ("field_independent", "field-independent"),
        ("offset_based", "offset-based"),
    ])
    def test_struct_model_is_recorded_and_links(self, sources, capsys,
                                                 model, shown):
        tmp_path, a, b = sources
        objs = str(tmp_path / "objs")
        assert main(["compile", a, b, "-o", objs,
                     "--struct-model", model]) == 0
        prog = str(tmp_path / "prog.cla")
        assert main(["link", f"{objs}/a.o", f"{objs}/b.o", "-o", prog]) == 0
        capsys.readouterr()
        for path in (f"{objs}/a.o", prog):
            assert main(["dump", path]) == 0
            assert f", {shown}, " in capsys.readouterr().out

    def test_both_field_independent_spellings_link(self, sources):
        tmp_path, a, b = sources
        obj_a, obj_b = str(tmp_path / "a.o"), str(tmp_path / "b.o")
        assert main(["compile", a, "-o", obj_a, "--field-independent"]) == 0
        assert main(["compile", b, "-o", obj_b,
                     "--struct-model", "field_independent"]) == 0
        assert main(["link", obj_a, obj_b,
                     "-o", str(tmp_path / "prog.cla")]) == 0

    def test_mixed_struct_models_fail_to_link(self, sources, capsys):
        tmp_path, a, b = sources
        obj_a, obj_b = str(tmp_path / "a.o"), str(tmp_path / "b.o")
        assert main(["compile", a, "-o", obj_a,
                     "--struct-model", "offset_based"]) == 0
        assert main(["compile", b, "-o", obj_b]) == 0
        capsys.readouterr()
        assert main(["link", obj_a, obj_b,
                     "-o", str(tmp_path / "prog.cla")]) == 2
        err = capsys.readouterr().err
        assert "struct model field_based differs" in err
        assert "(offset_based)" in err

    def test_struct_model_flags_are_exclusive(self, sources, capsys):
        tmp_path, a, _ = sources
        with pytest.raises(SystemExit) as excinfo:
            main(["compile", a, "-o", str(tmp_path / "a.o"),
                  "--field-independent", "--struct-model", "offset_based"])
        assert excinfo.value.code == 2
        assert "not allowed with" in capsys.readouterr().err

    def test_link_reports_totals(self, sources, capsys):
        tmp_path, a, b = sources
        obj_a = str(tmp_path / "a.o")
        assert main(["compile", a, "-o", obj_a]) == 0
        out_path = str(tmp_path / "prog.cla")
        assert main(["link", obj_a, "-o", out_path]) == 0
        out = capsys.readouterr().out
        assert "objects" in out


class TestAnalyze:
    def test_analyze_summary(self, database, capsys):
        assert main(["analyze", database]) == 0
        out = capsys.readouterr().out
        assert "solver=pretransitive" in out
        assert "in file" in out

    def test_query(self, database, capsys):
        assert main(["analyze", database, "--query", "q"]) == 0
        out = capsys.readouterr().out
        assert "pts(q) = {x}" in out

    def test_all_solvers(self, database, capsys):
        for solver in ("pretransitive", "transitive", "steensgaard"):
            assert main(["analyze", database, "--solver", solver]) == 0

    def test_top_listing(self, database, capsys):
        assert main(["analyze", database, "--top", "3"]) == 0

    def test_no_demand_flag(self, database, capsys):
        assert main(["analyze", database, "--no-demand"]) == 0

    def test_no_diff_flag(self, database, capsys):
        assert main(["analyze", database, "--no-diff", "--query", "q"]) == 0
        assert "pts(q) = {x}" in capsys.readouterr().out

    def test_stats_include_diff_counters(self, database, capsys):
        assert main(["analyze", database, "--stats"]) == 0
        out = capsys.readouterr().out
        assert "delta_lvals_processed=" in out
        assert "lvals_skipped_by_diff=" in out


@pytest.mark.parametrize("argv", [
    ["compile", "a.c", "-o", "a.o", "-j", "-1"],
    ["analyze", "p.cla", "--max-core-assignments", "-1"],
    ["analyze", "p.cla", "--top", "-1"],
    ["analyze", "p.cla", "--top", "many"],
    ["depend", "p.cla", "--target", "x", "--max-core-assignments", "-1"],
    ["depend", "p.cla", "--target", "x", "--limit", "-1"],
    ["bench", "table3", "--max-core-assignments", "-1"],
    ["serve", "p.cla", "--cache-entries", "-1"],
    ["serve", "p.cla", "--trace-ring", "-1"],
    ["transform", "p.cla", "q.cla", "--context-sensitivity", "-2"],
    ["fuzz", "--iterations", "-1"],
    ["fuzz", "--max-units", "0"],
    ["fuzz", "--max-units", "-1"],
    ["fuzz", "--shrink-budget", "-1"],
], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
def test_bad_count_is_a_usage_error(argv, capsys):
    """Every count flag refuses a value below its minimum (or not an
    int) while parsing: a one-line usage error, rc 2, nothing run."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "Traceback" not in err
    [error] = [line for line in err.splitlines() if "error:" in line]
    assert f"error: argument {argv[-2]}" in error
    assert "must be at least" in error or "invalid int value" in error


class TestCliFailureModes:
    """Every database-opening subcommand fails with a one-line error and
    exit code 2 — never a traceback (the ISSUE's three bugfixes)."""

    def err(self, capsys):
        err = capsys.readouterr().err
        assert err.startswith("error: "), err
        assert "Traceback" not in err
        return err

    @pytest.mark.parametrize("command", [
        ["analyze"], ["depend", "--target", "x"], ["dump"],
        ["callgraph"],
    ])
    def test_missing_database(self, command, tmp_path, capsys):
        missing = str(tmp_path / "missing.cla")
        assert main([command[0], missing] + command[1:]) == 2
        assert missing in self.err(capsys)

    def test_truncated_database(self, tmp_path, capsys):
        bad = tmp_path / "bad.cla"
        bad.write_bytes(b"short")
        assert main(["analyze", str(bad)]) == 2
        err = self.err(capsys)
        assert "truncated header" in err and str(bad) in err

    def test_corrupt_database(self, tmp_path, capsys):
        bad = tmp_path / "garbage.cla"
        bad.write_bytes(bytes(range(256)))
        assert main(["analyze", str(bad)]) == 2
        assert "bad magic" in self.err(capsys)

    def test_pretransitive_toggle_rejected_for_other_solver(
            self, database, capsys):
        assert main(["analyze", database, "--solver", "steensgaard",
                     "--no-demand"]) == 2
        err = self.err(capsys)
        assert "--no-demand" in err and "steensgaard" in err

    def test_diff_toggle_rejected_for_other_solver(self, database, capsys):
        assert main(["analyze", database, "--solver", "transitive",
                     "--no-diff", "--no-cache"]) == 2
        err = self.err(capsys)
        assert "--no-diff" in err and "--no-cache" in err

    def test_toggles_fine_with_explicit_pretransitive(self, database,
                                                      capsys):
        assert main(["analyze", database, "--solver", "pretransitive",
                     "--no-diff", "--no-cycle-elim"]) == 0


class TestBuildAndLinkErrors:
    """Sources that do not compile and objects that do not link fail with
    one ``error:`` line and exit code 2, naming every broken file."""

    BAD = "int broken('"
    BAD2 = "void also_broken(void) { @ }"

    def err(self, capsys) -> str:
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err
        return err

    def write(self, tmp_path, name, text) -> str:
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_compile_error(self, tmp_path, capsys):
        bad = self.write(tmp_path, "bad.c", self.BAD)
        assert main(["compile", bad, "-o", str(tmp_path / "bad.o")]) == 2
        err = self.err(capsys)
        assert "1 unit failed to compile" in err and bad in err

    def test_analyze_compile_error(self, tmp_path, capsys):
        bad = self.write(tmp_path, "bad.c", self.BAD)
        assert main(["analyze", bad]) == 2
        assert bad in self.err(capsys)

    def test_parallel_compile_names_every_failure(self, sources, tmp_path,
                                                  capsys):
        _, a, _ = sources
        bad = self.write(tmp_path, "bad.c", self.BAD)
        bad2 = self.write(tmp_path, "bad2.c", self.BAD2)
        assert main(["compile", "-j", "2", bad, bad2, a,
                     "-o", str(tmp_path / "out")]) == 2
        err = self.err(capsys)
        assert "2 units failed to compile" in err
        assert bad in err and bad2 in err and a not in err
        assert err.index(bad + ":") < err.index(bad2 + ":")  # by name

    def test_link_conflicting_definitions(self, tmp_path, capsys):
        objects = []
        for name, var in (("a.c", "x"), ("b.c", "y")):
            src = self.write(tmp_path, name,
                             f"int {var}, *p{var}; void f(void) "
                             f"{{ p{var} = &{var}; }}\n")
            objects.append(src[:-2] + ".o")
            assert main(["compile", src, "-o", objects[-1]]) == 0
        capsys.readouterr()
        out = str(tmp_path / "prog.cla")
        assert main(["link", *objects, "-o", out]) == 2
        err = self.err(capsys)
        assert "duplicate definition of function 'f'" in err
        assert "a.c" in err and "b.c" in err


class TestDepend:
    def test_dependence_output(self, database, capsys):
        assert main(["depend", database, "--target", "tgt"]) == 0
        out = capsys.readouterr().out
        assert "dependent objects" in out
        assert "out/short" in out

    def test_missing_target_errors(self, database, capsys):
        assert main(["depend", database, "--target", "nothing"]) == 1

    def test_non_target_flag(self, database, capsys):
        assert main(["depend", database, "--target", "tgt",
                     "--non-target", "out"]) == 0
        out = capsys.readouterr().out
        assert "0 dependent objects" in out

    @pytest.mark.parametrize("argv", [
        ["depend", "--target", "tgt"],
        ["depend", "--target", "tgt", "--tree", "--stats",
         "--max-core-assignments", "3"],
        ["callgraph"],
    ])
    def test_sources_answer_as_the_database(self, sources, database,
                                            capsys, argv):
        """Like analyze and check, depend and callgraph take a set of
        .c sources, compiled and linked in memory, in place of the
        database linked from them."""
        _tmp, a, b = sources
        command, flags = argv[0], argv[1:]
        assert main([command, database, *flags]) == 0
        from_database = capsys.readouterr().out
        assert main([command, a, b, *flags]) == 0
        assert capsys.readouterr().out == from_database


class TestDump:
    def test_sections_listed(self, database, capsys):
        assert main(["dump", database]) == 0
        out = capsys.readouterr().out
        for section in ("strtab", "global", "static", "target", "dynamic",
                        "dynidx"):
            assert section in out

    def test_statics_dump(self, database, capsys):
        assert main(["dump", database, "--statics"]) == 0
        assert "p = &x" in capsys.readouterr().out

    def test_block_dump(self, database, capsys):
        assert main(["dump", database, "--block", "p"]) == 0
        assert "q = p" in capsys.readouterr().out

    def test_missing_block(self, database, capsys):
        assert main(["dump", database, "--block", "ghost"]) == 1


class TestSynthAndBench:
    def test_synth_writes_files(self, tmp_path, capsys):
        out_dir = str(tmp_path / "gen")
        assert main(["synth", "nethack", "-o", out_dir,
                     "--scale", "0.02"]) == 0
        assert (tmp_path / "gen" / "synth.h").exists()

    def test_bench_table1(self, capsys):
        assert main(["bench", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Strong" in out and "Weak" in out

    def test_bench_table4_single_profile(self, capsys):
        assert main(["bench", "table4", "--profile", "nethack",
                     "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "nethack" in out
        assert "rel ratio" in out

    def test_bench_solvers_single_profile(self, capsys):
        assert main(["bench", "solvers", "--profile", "nethack",
                     "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "steensgaard:utime" in out


class TestDependReports:
    def test_tree_flag(self, database, capsys):
        assert main(["depend", database, "--target", "tgt", "--tree"]) == 0
        out = capsys.readouterr().out
        assert "[target]" in out
        assert "`--" in out

    def test_json_to_stdout(self, database, capsys):
        import json

        assert main(["depend", database, "--target", "tgt",
                     "--json", "-"]) == 0
        out = capsys.readouterr().out
        payload = out[out.index("{"):]
        data = json.loads(payload)
        assert data["targets"] == ["tgt"]

    def test_csv_to_file(self, database, tmp_path, capsys):
        out_file = str(tmp_path / "deps.csv")
        assert main(["depend", database, "--target", "tgt",
                     "--csv", out_file]) == 0
        with open(out_file) as f:
            assert f.read().startswith("object,")

    def test_struct_model_flag(self, sources, capsys):
        tmp_path, a, _ = sources
        obj = str(tmp_path / "om.o")
        assert main(["compile", a, "-o", obj,
                     "--struct-model", "offset_based"]) == 0


class TestOutputTargets:
    """Every ``FILE or -`` flag writes the same text either way; the JSON
    flags add a newline on stdout only."""

    @pytest.mark.parametrize("command, flag, end", [
        (["analyze", "{db}"], "--dot", ""),
        (["analyze", "{db}"], "--json", "\n"),
        (["depend", "{db}", "--target", "tgt"], "--json", "\n"),
        (["depend", "{db}", "--target", "tgt"], "--csv", ""),
        (["depend", "{db}", "--target", "tgt"], "--dot", ""),
        (["callgraph", "{db}"], "--dot", ""),
        (["report", "--events", "{events}"], "-o", ""),
    ])
    def test_stdout_matches_file(self, database, tmp_path, capsys, command,
                                 flag, end):
        events = str(tmp_path / "e.jsonl")
        assert main(["analyze", database, "--events", events]) == 0
        argv = [a.format(db=database, events=events) for a in command]
        out_file = tmp_path / "out"
        capsys.readouterr()
        assert main(argv + [flag, str(out_file)]) == 0
        on_disk = out_file.read_bytes().decode()
        stdout_without = capsys.readouterr().out
        assert main(argv + [flag, "-"]) == 0
        stdout = capsys.readouterr().out
        # The lines before the payload carry timings, so only their
        # count is compared.
        assert on_disk and stdout.endswith(on_disk + end)
        head = stdout[:len(stdout) - len(on_disk + end)]
        assert head.count("\n") == stdout_without.count("\n")


class TestCallgraphCli:
    def test_callgraph_output(self, tmp_path, capsys):
        src = tmp_path / "cg.c"
        src.write_text("""
void leaf(void) { }
void (*h)(void);
void mid(void) { h = leaf; h(); }
void top(void) { mid(); }
void dead(void) { }
""")
        obj, db = str(tmp_path / "cg.o"), str(tmp_path / "cg.cla")
        assert main(["compile", str(src), "-o", obj]) == 0
        assert main(["link", obj, "-o", db]) == 0
        assert main(["callgraph", db, "--roots", "top"]) == 0
        out = capsys.readouterr().out
        assert "mid -> leaf*" in out
        assert "dead: dead" in out

    def test_callgraph_dot(self, tmp_path, capsys):
        src = tmp_path / "cg.c"
        src.write_text("void a(void) {} void b(void) { a(); }")
        obj, db = str(tmp_path / "cg.o"), str(tmp_path / "cg.cla")
        assert main(["compile", str(src), "-o", obj]) == 0
        assert main(["link", obj, "-o", db]) == 0
        dot = str(tmp_path / "cg.dot")
        assert main(["callgraph", db, "--dot", dot]) == 0
        with open(dot) as f:
            assert "digraph callgraph" in f.read()


class TestAnalyzeJson:
    def test_json_output(self, database, tmp_path, capsys):
        import json

        out = str(tmp_path / "pts.json")
        assert main(["analyze", database, "--json", out]) == 0
        with open(out) as f:
            data = json.load(f)
        assert data["solver"] == "pretransitive"
        assert data["points_to"]["p"] == ["x"]
        assert data["points_to"]["q"] == ["x"]
        assert data["assignments"]["in_file"] >= data["assignments"]["loaded"] or True
        assert data["pointer_variables"] >= 2


class TestCheckCli:
    def test_check_sources_clean(self, sources, capsys):
        _tmp, a, b = sources
        assert main(["check", a, b]) == 0
        out = capsys.readouterr().out
        assert "pretransitive:" in out
        assert "0 violation(s)" in out

    def test_check_all_solvers(self, sources, capsys):
        _tmp, a, b = sources
        assert main(["check", a, b, "--all-solvers"]) == 0
        out = capsys.readouterr().out
        for solver in ("pretransitive", "transitive", "steensgaard",
                       "onelevel"):
            assert f"{solver}:" in out

    def test_check_database_with_minimality(self, database, capsys):
        assert main(["check", database, "--minimal"]) == 0

    def test_minimality_skipped_for_unification(self, database, capsys):
        assert main(["check", database, "--solver", "steensgaard",
                     "--minimal"]) == 0
        out = capsys.readouterr().out
        assert "skipping minimality" in out

    def test_violation_exits_one(self, sources, capsys, monkeypatch):
        from repro.solvers import PreTransitiveSolver

        original = PreTransitiveSolver._add_edge

        def buggy(self, src, dst):
            if not getattr(self, "_dropped_one", False):
                self._dropped_one = True
                return False
            return original(self, src, dst)

        monkeypatch.setattr(PreTransitiveSolver, "_add_edge", buggy)
        _tmp, a, b = sources
        assert main(["check", a, b]) == 1
        out = capsys.readouterr().out
        assert "violation" in out

    def test_mixed_inputs_rejected(self, sources, database, capsys):
        _tmp, a, _b = sources
        assert main(["check", a, database]) == 2

    def test_events_written(self, sources, tmp_path, capsys):
        _tmp, a, b = sources
        events = str(tmp_path / "check-events.jsonl")
        assert main(["check", a, b, "--events", events]) == 0
        with open(events) as f:
            assert '"solver.begin"' in f.read()


class TestFuzzCli:
    def test_clean_campaign(self, tmp_path, capsys):
        out_dir = str(tmp_path / "repros")
        assert main(["fuzz", "--seed", "7", "--iterations", "2",
                     "--max-units", "2", "--scale", "0.005",
                     "--profile", "burlap", "--out", out_dir]) == 0
        out = capsys.readouterr().out
        assert "2/2 programs" in out
        assert "no oracle violations" in out

    def test_unknown_profile_rejected(self, capsys):
        assert main(["fuzz", "--profile", "nope"]) == 2

    def test_failure_exits_one_with_repro(self, tmp_path, capsys,
                                          monkeypatch):
        from repro.solvers import PreTransitiveSolver

        original = PreTransitiveSolver._add_edge

        def buggy(self, src, dst):
            if not getattr(self, "_dropped_one", False):
                self._dropped_one = True
                return False
            return original(self, src, dst)

        monkeypatch.setattr(PreTransitiveSolver, "_add_edge", buggy)
        out_dir = str(tmp_path / "repros")
        assert main(["fuzz", "--seed", "20260806", "--iterations", "16",
                     "--max-units", "2", "--out", out_dir]) == 1
        err = capsys.readouterr().err
        assert "FAILURE at iteration" in err
        assert "repro written to" in err
