"""Tests for the database-to-database transformers (paper §4)."""


from repro.cfront import parse_c
from repro.cla.linker import absorb_object_files
from repro.cla.store import MemoryStore
from repro.cla.transform import (
    ContextSensitivity,
    OfflineVariableSubstitution,
    address_taken,
    transform_file,
)
from repro.cla.writer import ObjectFileWriter
from repro.ir import lower_translation_unit
from repro.solvers import PreTransitiveSolver


def unit_of(src, filename="t.c"):
    return lower_translation_unit(parse_c(src, filename=filename))


def image_of(src, filename="t.c"):
    """The transform input: the linked database as one unit."""
    return MemoryStore(unit_of(src, filename)).to_unit()


def solve(image):
    return PreTransitiveSolver(MemoryStore(image)).solve()


def write(image, path):
    """Write a transform input as a linked database."""
    ObjectFileWriter(MemoryStore(image), linked=True).write(path)


ID_FUNCTION = """
int x, y;
int *id2(int *p) { return p; }
int *a, *b;
void f(void) {
  a = id2(&x);
  b = id2(&y);
}
"""


class TestDatabaseImage:
    def test_from_units_collects_everything(self):
        image = image_of(ID_FUNCTION)
        assert "id2" in image.function_records
        assert len(image.assignments) > 0
        assert "a" in image.objects

    def test_file_round_trip(self, tmp_path):
        image = image_of(ID_FUNCTION)
        path = str(tmp_path / "db.cla")
        write(image, path)
        back = absorb_object_files([path]).to_unit()
        assert len(back.assignments) == len(image.assignments)
        assert set(back.function_records) == set(image.function_records)
        assert back.source_lines == image.source_lines

    def test_to_store_solves_identically(self):
        image = image_of(ID_FUNCTION)
        direct = PreTransitiveSolver(MemoryStore(unit_of(ID_FUNCTION))).solve()
        via_image = solve(image)
        for name in set(direct.pts) | set(via_image.pts):
            assert direct.points_to(name) == via_image.points_to(name)

    def test_address_taken(self):
        image = image_of("int v, *p; void f(void) { p = &v; }")
        assert "v" in address_taken(image)


class TestContextSensitivity:
    def test_id_function_separated(self):
        image = image_of(ID_FUNCTION, filename="cs.c")
        insensitive = solve(image)
        assert insensitive.points_to("a") == {"x", "y"}

        cs = ContextSensitivity(max_sites=4)
        sensitive = solve(cs.apply(image))
        assert cs.cloned_functions == 1
        assert sensitive.points_to("a") == {"x"}
        assert sensitive.points_to("b") == {"y"}

    def test_soundness_never_loses_facts(self):
        # Cloning may only *refine*: remaining sets are subsets of the
        # insensitive ones, and direct facts survive.
        image = image_of(ID_FUNCTION, filename="cs.c")
        insensitive = solve(image)
        sensitive = solve(ContextSensitivity().apply(image))
        for name in ("a", "b"):
            assert sensitive.points_to(name) <= insensitive.points_to(name)
            assert sensitive.points_to(name)  # not emptied

    def test_too_many_sites_not_cloned(self):
        calls = "\n".join(f"  a = id2(&x{i});" for i in range(6))
        decls = " ".join(f"int x{i};" for i in range(6))
        src = f"""
        {decls}
        int *id2(int *p) {{ return p; }}
        int *a;
        void f(void) {{
        {calls}
        }}
        """
        image = image_of(src)
        cs = ContextSensitivity(max_sites=4)
        cs.apply(image)
        assert cs.cloned_functions == 0

    def test_single_site_not_cloned(self):
        src = """
        int x; int *id2(int *p) { return p; }
        int *a; void f(void) { a = id2(&x); }
        """
        cs = ContextSensitivity()
        cs.apply(image_of(src))
        assert cs.cloned_functions == 0

    def test_address_taken_function_not_cloned(self):
        src = """
        int x, y;
        int *id2(int *p) { return p; }
        int *(*fp)(int *);
        int *a, *b;
        void f(void) {
          fp = id2;
          a = id2(&x);
          b = id2(&y);
        }
        """
        image = image_of(src, filename="fp.c")
        cs = ContextSensitivity()
        result = solve(cs.apply(image))
        assert cs.cloned_functions == 0
        # Indirect linking still works after the (non-)transform.
        assert result.points_to("a") == {"x", "y"}

    def test_callee_of_cloned_function_stays_shared(self):
        # h calls g with h's locals: g must not be cloned, h may be.
        src = """
        int x, y;
        int *g2(int *q) { return q; }
        int *h2(int *p) { int *local; local = p; return g2(local); }
        int *a, *b;
        void f(void) {
          a = h2(&x);
          b = h2(&y);
        }
        """
        image = image_of(src, filename="nest.c")
        cs = ContextSensitivity()
        result = solve(cs.apply(image))
        insensitive = solve(image)
        # g's plumbing is shared, so precision matches the insensitive
        # answer — but nothing is lost.
        for name in ("a", "b"):
            assert insensitive.points_to(name) <= result.points_to(name) \
                or result.points_to(name) <= insensitive.points_to(name)
            assert "x" in result.points_to("a") or "y" in result.points_to("a")

    def test_statics_never_cloned(self):
        # The static local is shared storage across invocations: both
        # callers must see both values even under cloning.
        src = """
        int x, y;
        int *keep(int *p) {
            static int *stash;
            int *old;
            old = stash;
            stash = p;
            return old;
        }
        int *a, *b;
        void f(void) {
          a = keep(&x);
          b = keep(&y);
        }
        """
        image = image_of(src, filename="st.c")
        result = solve(ContextSensitivity().apply(image))
        # a reads the shared stash: it may hold either pointer.
        assert result.points_to("a") == {"x", "y"}
        assert result.points_to("b") == {"x", "y"}


class TestOfflineVariableSubstitution:
    def test_copy_chain_collapses(self):
        image = image_of("""
        int t, *p0, *p1, *p2, *p3;
        void g(void) { p0 = &t; p1 = p0; p2 = p1; p3 = p2; }
        """)
        ovs = OfflineVariableSubstitution()
        out = ovs.apply(image)
        assert len(out.assignments) == 1  # just p0 = &t
        assert ovs.substituted == {"p1": "p0", "p2": "p0", "p3": "p0"}

    def test_recover_eliminated_variable(self):
        image = image_of("""
        int t, *p0, *p1;
        void g(void) { p0 = &t; p1 = p0; }
        """)
        ovs = OfflineVariableSubstitution()
        result = solve(ovs.apply(image))
        assert ovs.recover(result.pts, "p1") == {"t"}

    def test_multi_source_not_substituted(self):
        image = image_of("""
        int t, u, *p, *q, *r;
        void g(void) { p = &t; q = &u; r = p; r = q; }
        """)
        ovs = OfflineVariableSubstitution()
        out = ovs.apply(image)
        assert "r" not in ovs.substituted
        result = solve(out)
        assert result.points_to("r") == {"t", "u"}

    def test_address_taken_not_substituted(self):
        image = image_of("""
        int t, *p, *q, **pp;
        void g(void) { p = &t; q = p; pp = &q; }
        """)
        ovs = OfflineVariableSubstitution()
        ovs.apply(image)
        assert "q" not in ovs.substituted

    def test_results_identical_for_survivors(self):
        src = """
        int t, u, *p, *q, *r, *s, **pp;
        void g(void) {
            p = &t; q = p; r = q;
            pp = &s; *pp = r; s = &u;
        }
        """
        image = image_of(src)
        baseline = solve(image)
        ovs = OfflineVariableSubstitution()
        optimized = solve(ovs.apply(image))
        for name in optimized.pts:
            if name in baseline.pts:
                assert optimized.points_to(name) == baseline.points_to(name)
        # And every eliminated variable is recoverable with the right set.
        for name in ovs.substituted:
            assert ovs.recover(optimized.pts, name) == \
                baseline.points_to(name), name

    def test_function_interface_protected(self):
        image = image_of("""
        int t;
        int *id2(int *p) { return p; }
        int *a;
        void g(void) { a = id2(&t); }
        """)
        ovs = OfflineVariableSubstitution()
        ovs.apply(image)
        assert "id2$arg1" not in ovs.substituted
        assert "id2$ret" not in ovs.substituted

    def test_loads_not_substituted(self):
        image = image_of("""
        int t, *p, **pp, *q;
        void g(void) { p = &t; pp = &p; q = *pp; }
        """)
        ovs = OfflineVariableSubstitution()
        out = ovs.apply(image)
        assert "q" not in ovs.substituted
        assert solve(out).points_to("q") == {"t"}


class TestTransformFile:
    def test_file_to_file_pipeline(self, tmp_path):
        image = image_of(ID_FUNCTION, filename="cs.c")
        src_path = str(tmp_path / "in.cla")
        out_path = str(tmp_path / "out.cla")
        write(image, src_path)
        transform_file(src_path, out_path,
                       [OfflineVariableSubstitution(),
                        ContextSensitivity()])
        result = PreTransitiveSolver(absorb_object_files([out_path])).solve()
        assert result.points_to("a") == {"x"}
        assert result.points_to("b") == {"y"}

    def test_transforms_compose(self):
        image = image_of(ID_FUNCTION, filename="cs.c")
        composed = ContextSensitivity().apply(
            OfflineVariableSubstitution().apply(image)
        )
        result = solve(composed)
        assert result.points_to("a") == {"x"}


class TestTransformOutput:
    def test_output_shares_no_container_with_input(self):
        """Changing a transform's output never changes its input."""
        image = image_of(ID_FUNCTION + "void (*fp)(void);\n"
                         "void g(void) { fp = f; fp(); }\n")
        assert image.function_records and image.indirect_calls
        assert image.call_sites
        for transform in (ContextSensitivity(),
                          OfflineVariableSubstitution()):
            out = transform.apply(image)
            for field in ("objects", "assignments", "function_records",
                          "indirect_calls", "call_sites"):
                assert getattr(out, field) is not getattr(image, field)
