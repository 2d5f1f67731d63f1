"""Table 2: benchmark characteristics.

Regenerates the paper's benchmark-description table over the synthetic
suite: source LOC, preprocessed size, object-file size, program variables,
and the counts of the five primitive-assignment kinds.  The timed section
is the compile+link pipeline (the phase Table 2's object files come from).
"""

import tempfile

import pytest

from conftest import compiled_units, profile_scale
from repro.driver.tables import build_database
from repro.ir import assignment_mix
from repro.cla.reader import DatabaseStore
from repro.synth import BENCHMARK_ORDER, PROFILES, generate

#: The paper's Table 2 assignment-mix rows (variables, x=y, x=&y, *x=y,
#: *x=*y, x=*y) — also encoded in repro.synth.profiles; asserted here so
#: the table regenerates from a second, independent statement of it.
PAPER_TABLE2 = {
    "nethack": (3856, 9118, 1115, 30, 34, 105),
    "burlap": (6859, 14202, 1049, 1160, 714, 1897),
    "vortex": (11395, 24218, 7458, 353, 231, 1866),
    "emacs": (12587, 31345, 3461, 614, 154, 1029),
    "povray": (12570, 29565, 4009, 2431, 1190, 3085),
    "gcc": (18749, 62556, 3434, 1673, 585, 1467),
    "gimp": (131552, 303810, 25578, 5943, 2397, 6428),
    "lucent": (96509, 270148, 72355, 1562, 991, 3989),
}


def test_profiles_match_paper_table2(benchmark):
    for name, row in PAPER_TABLE2.items():
        p = PROFILES[name]
        assert (p.variables, p.copies, p.addrs, p.stores, p.store_loads,
                p.loads) == row, name
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


@pytest.mark.parametrize("profile", BENCHMARK_ORDER)
def test_table2_row(benchmark, profile, report):
    scale = profile_scale(profile)
    program = generate(profile, scale=scale, seed=42)

    def compile_and_link():
        with tempfile.TemporaryDirectory() as tmp:
            return build_database(program, tmp), None

    # Compile+link is the slow phase; one round keeps the suite quick.
    def run():
        with tempfile.TemporaryDirectory() as tmp:
            path = build_database(program, tmp)
            with DatabaseStore.open(path) as database:
                import os

                return (os.path.getsize(path), database.stats.in_file,
                        database.object_count())

    size, n_assignments, n_objects = benchmark.pedantic(run, rounds=1,
                                                        iterations=1)
    # The mix (measured in-memory, cheaper) must track the scaled profile.
    _prog, units = compiled_units(profile)
    mix = assignment_mix([a for u in units for a in u.assignments])
    want = program.profile
    # Call lowering adds copies; singleton-cluster self-copies drop a few.
    assert mix["x = y"] >= want.copies * 0.9
    for label, target in [("*x = y", want.stores),
                          ("*x = *y", want.store_loads),
                          ("x = *y", want.loads)]:
        assert abs(mix[label] - target) <= max(4, target * 0.1), label

    paper = PAPER_TABLE2[profile]
    report.append(
        f"[table2] {profile}@{scale:g}: lines={program.source_lines()} "
        f"object={size / 1e6:.1f}MB vars={n_objects} "
        f"mix={mix['x = y']}/{mix['x = &y']}/{mix['*x = y']}"
        f"/{mix['*x = *y']}/{mix['x = *y']}  "
        f"(paper vars={paper[0]} mix={paper[1]}/{paper[2]}/{paper[3]}"
        f"/{paper[4]}/{paper[5]})"
    )
    benchmark.extra_info.update({
        "object_bytes": size,
        "assignments_in_file": n_assignments,
        "source_lines": program.source_lines(),
    })
