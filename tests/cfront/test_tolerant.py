"""Tests for tolerant parsing (panic-mode recovery).

The paper's tool is deployed against million-line legacy code bases; dying
on the first unparseable construct is not an option.  Tolerant mode skips
a broken external declaration, records a diagnostic, and keeps going.
"""

import pytest

from repro.cfront import ParseError, parse_c
from repro.driver.api import CompileOptions, compile_source


def names(unit):
    return [getattr(item, "name", "?") for item in unit.items]


class TestRecovery:
    def test_strict_mode_still_raises(self):
        with pytest.raises(ParseError):
            parse_c("int x; int ( ; int y;")

    def test_bad_declaration_skipped(self):
        unit = parse_c("int a; int ) broken ; int b;", tolerant=True)
        assert "a" in names(unit)
        assert "b" in names(unit)
        assert len(unit.diagnostics) == 1

    def test_stray_characters_survive(self):
        unit = parse_c("int a;\nint @@@ nope;\nint b;", tolerant=True)
        assert names(unit) == ["a", "b"]

    def test_broken_function_body_skipped(self):
        unit = parse_c("""
        int before;
        void broken(void) { if ( } syntax disaster {{ ; }
        int after;
        void fine(void) { after = 1; }
        """, tolerant=True)
        assert "before" in names(unit)
        assert "after" in names(unit)
        assert "fine" in names(unit)
        assert unit.diagnostics

    def test_unbalanced_paren_does_not_swallow_file(self):
        unit = parse_c("""
        int a;
        typedef weird magic(nonsense;
        int b, *p;
        void f(void) { p = &a; }
        """, tolerant=True)
        assert "b" in names(unit)
        assert "f" in names(unit)

    def test_diagnostics_carry_locations(self):
        unit = parse_c("int ok;\nint ) bad ;\n", filename="d.c",
                       tolerant=True)
        [diag] = unit.diagnostics
        assert diag.location.filename == "d.c"
        assert diag.location.line == 2

    def test_diagnostics_keep_no_traceback(self):
        """A traceback's frames would hold the parser and its tokens in a
        cycle, keeping them alive until a cyclic collection."""
        unit = parse_c("int ok;\nint ) bad ;\nint @@@ nope;\n",
                       tolerant=True)
        assert len(unit.diagnostics) == 2
        assert all(d.__traceback__ is None for d in unit.diagnostics)

    def test_consecutive_errors(self):
        unit = parse_c("""
        int ) one ;
        int ) two ;
        int ) three ;
        int survivor;
        """, tolerant=True)
        assert "survivor" in names(unit)
        assert len(unit.diagnostics) == 3

    def test_error_at_eof(self):
        unit = parse_c("int good; int (", tolerant=True)
        assert "good" in names(unit)
        assert len(unit.diagnostics) == 1

    def test_strict_mode_has_no_diagnostics(self):
        unit = parse_c("int x;")
        assert unit.diagnostics == []


class TestAnalysisOnRecoveredUnit:
    def test_surviving_code_analyzes_normally(self):
        from repro.cla.store import MemoryStore
        from repro.ir import lower_translation_unit
        from repro.solvers import PreTransitiveSolver

        unit = parse_c("""
        int x, *p;
        int ) rubbish here ;
        void f(void) { p = &x; }
        """, filename="t.c", tolerant=True)
        result = PreTransitiveSolver(
            MemoryStore(lower_translation_unit(unit))
        ).solve()
        assert result.points_to("p") == {"x"}

    def test_compile_options_plumbing(self):
        options = CompileOptions(tolerant=True)
        ir = compile_source("int x; int ) oops ; int *p;"
                            "void f(void) { p = &x; }", "t.c", options)
        assert any(a.dst == "p" for a in ir.assignments)

    def test_strict_options_raise(self):
        with pytest.raises(ParseError):
            compile_source("int ) oops ;", "t.c", CompileOptions())
