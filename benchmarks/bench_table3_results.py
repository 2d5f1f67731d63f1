"""Table 3: points-to analysis results on all eight benchmark profiles.

Regenerates the paper's main result table — pointer variables, points-to
relations, analysis time, and the in-core / loaded / in-file assignment
accounting — with the field-based pre-transitive solver, the paper's
default configuration.  Expected shape (EXPERIMENTS.md): runtime roughly
linear in loaded assignments; in-core << loaded <= in-file.  That the
emacs profile's relation count per pointer dwarfs its neighbours' is a
tier-1 test, ``tests/driver/test_tables.py::TestTable3Shape``.

The timed route is ``repro-cla bench table3``'s
(``driver/tables.py::table3_rows``): each profile's sources are compiled
to object files and linked into a database on disk once, and every round
solves a freshly opened ``DatabaseStore`` of it, the open untimed.
"""

import pytest

from conftest import profile_scale
from repro.driver.tables import PAPER_TABLE3, build_database
from repro.engine.obs import human_count
from repro.engine.pipeline import Pipeline
from repro.synth import BENCHMARK_ORDER, generate


@pytest.mark.parametrize("profile", BENCHMARK_ORDER)
def test_table3_row(benchmark, profile, report, tmp_path):
    pipeline = Pipeline()
    path = build_database(
        generate(profile, scale=profile_scale(profile), seed=42),
        str(tmp_path))
    holder = {}

    def setup():
        if "store" in holder:
            holder["store"].close()
        holder["store"] = pipeline.open_database(path)
        return (), {}

    def run():
        holder["result"] = pipeline.analyze(holder["store"])
        return holder["result"]

    benchmark.pedantic(run, setup=setup, rounds=3, iterations=1)
    result = holder["result"]
    store = holder["store"]
    paper = PAPER_TABLE3[profile]

    try:
        pointers = result.pointer_variables()
        relations = result.points_to_relations()
        assert pointers > 0
        assert relations > 0
        # The demand-loading property that makes Table 3's space numbers
        # small:
        assert store.stats.in_core <= store.stats.loaded <= store.stats.in_file
    finally:
        store.close()

    benchmark.extra_info.update({
        "pointer_variables": pointers,
        "points_to_relations": relations,
        "in_core": store.stats.in_core,
        "loaded": store.stats.loaded,
        "in_file": store.stats.in_file,
        "paper_pointers": paper[0],
        "paper_relations": paper[1],
    })
    report.append(
        f"[table3] {profile}@{profile_scale(profile):g}: "
        f"ptrs={pointers} rel={human_count(relations)} "
        f"in-core/loaded/in-file={store.stats.in_core}/"
        f"{store.stats.loaded}/{store.stats.in_file}  "
        f"(paper: ptrs={paper[0]} rel={human_count(paper[1])} "
        f"utime={paper[2]}s in-core/loaded/in-file="
        f"{paper[4]}/{paper[5]}/{paper[6]})"
    )
