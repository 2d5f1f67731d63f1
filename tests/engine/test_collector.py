"""The compile and the link run with the cycle collector paused.

The pause costs nothing only while neither phase leaves cyclic garbage:
reference counting must free everything they allocate.  The guard tests
below pin that, so a change that makes a phase build a reference cycle
fails here rather than growing the heap of a long-lived process.  A
solve leaves none either, so a daemon's replaced generation is freed the
moment its result is dropped, not at some later collection.
"""

import gc
import os
import threading
import types
from collections import Counter

import pytest

from repro.cfront import ParseError
from repro.cla.linker import link_object_files
from repro.cla.writer import write_unit
from repro.engine.collector import collector_paused
from repro.engine.pipeline import CompileOptions, Pipeline, compile_source
from repro.solvers import SOLVERS
from repro.synth import PROFILES, generate


@pytest.fixture
def collector_off():
    """Collect what earlier tests left, then keep the collector off, so
    only a collection the test makes can find the phase's garbage."""
    was_on = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_on:
            gc.enable()


def _is_ours(obj) -> bool:
    if isinstance(obj, types.FrameType):
        return "repro" in obj.f_code.co_filename
    if isinstance(obj, types.FunctionType):
        return (obj.__module__ or "").startswith("repro.")
    return type(obj).__module__.startswith("repro.")


def cyclic_garbage() -> Counter:
    """The types of the objects that only a cyclic collection frees right
    now.  While a thread another test left running is alive, it may make
    garbage of its own meanwhile, so then only the program's objects
    count (a builtin container that holds itself goes unseen)."""
    alone = threading.active_count() == 1
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return Counter(type(obj).__qualname__ for obj in gc.garbage
                       if alone or _is_ours(obj))
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def assert_no_cycles(phase: str) -> None:
    found = cyclic_garbage()
    assert not found, (
        f"{phase} left cyclic garbage {dict(found)}; it runs with the "
        "cycle collector paused, which is free only while it leaves none")


class TestNoCyclicGarbage:
    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_compile_write_link(self, profile, tmp_path, collector_off):
        program = generate(profile, scale=0.01, seed=1)
        options = CompileOptions()
        options.virtual_files[program.header_name] = program.header
        paths = []
        for i, (filename, text) in enumerate(sorted(program.files.items())):
            path = os.path.join(tmp_path, f"{i}.o")
            write_unit(compile_source(text, filename, options), path)
            paths.append(path)
        assert_no_cycles("compile_source + write_unit")
        link_object_files(paths, os.path.join(tmp_path, "program.cla"))
        assert_no_cycles("link_object_files")
        del options
        assert_no_cycles("the compile options' include cache")

    def test_strict_compile_error(self, collector_off):
        with pytest.raises(ParseError):
            compile_source("int x; int ) oops ; int *p;", "t.c",
                           CompileOptions())
        assert_no_cycles("compile_source raising ParseError")

    def test_tolerant_compile_with_recovered_error(self, collector_off):
        compile_source("int x; int ) oops ; int *p;", "t.c",
                       CompileOptions(tolerant=True))
        assert_no_cycles("compile_source recovering from a parse error")


#: Pointee classes that point at each other (``pp = &q; q = &pp``, a
#: two-node list): unification links its classes into reference cycles.
SELF_REFERENTIAL = """
int *p, *q; int **pp, **qq;
void f(void) { pp = &q; qq = &p; p = (int *)&pp; q = (int *)&qq; }
struct n { struct n *next; } a, b;
void g(void) { a.next = &b; b.next = &a; a.next = a.next->next; }
"""


def assert_solves_leave_no_cycles(store, what: str) -> None:
    gc.collect()  # whatever building the store left
    for solver in sorted(SOLVERS):
        result = Pipeline().analyze(store, solver)
        assert result.pts
        del result
        assert_no_cycles(f"a {solver} solve of {what}")


class TestSolvesLeaveNoCycles:
    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_every_solver(self, profile, collector_off):
        store = generate(profile, scale=0.01, seed=1).project().store()
        assert_solves_leave_no_cycles(store, profile)

    def test_self_referential_pointees(self, collector_off):
        store = Pipeline().link_units(
            [compile_source(SELF_REFERENTIAL, "t.c")])
        assert_solves_leave_no_cycles(store, "t.c")

    @pytest.mark.parametrize("toggle", [
        "enable_cache", "enable_diff_propagation", "demand_load"])
    def test_pretransitive_ablations(self, toggle, collector_off):
        # Without cycle elimination the graph's cycles are the ablation's
        # own graph (``get_lvals`` still walks it), so that one is not
        # pinned here.
        store = generate("gimp", scale=0.01, seed=1).project().store()
        gc.collect()
        Pipeline().analyze(store, "pretransitive", **{toggle: False})
        assert_no_cycles(f"a pretransitive solve without {toggle}")


class TestCollectorPaused:
    def test_off_inside_and_on_after(self):
        paused = collector_paused(lambda step: (gc.isenabled(), step + 1))
        assert gc.isenabled()
        assert paused(1) == (False, 2)
        assert gc.isenabled()

    def test_on_after_an_exception(self):
        @collector_paused
        def fails():
            assert not gc.isenabled()
            raise KeyError("boom")

        with pytest.raises(KeyError):
            fails()
        assert gc.isenabled()

    def test_a_callers_off_survives(self):
        gc.disable()
        try:
            collector_paused(lambda: None)()
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_nested_use_keeps_it_off_until_the_outer_ends(self):
        seen = []

        @collector_paused
        def inner():
            seen.append(("inner", gc.isenabled()))

        @collector_paused
        def outer():
            inner()
            seen.append(("after inner", gc.isenabled()))

        outer()
        assert seen == [("inner", False), ("after inner", False)]
        assert gc.isenabled()
