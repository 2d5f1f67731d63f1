"""Table 3: points-to analysis results on all eight benchmark profiles.

Regenerates the paper's main result table — pointer variables, points-to
relations, analysis time, and the in-core / loaded / in-file assignment
accounting — with the field-based pre-transitive solver, the paper's
default configuration.  Expected shape (EXPERIMENTS.md): runtime roughly
linear in loaded assignments; in-core << loaded <= in-file; the emacs
profile's relation count dwarfs its neighbours while its runtime does not.
"""

import pytest

from conftest import fresh_store, profile_scale
from repro.driver.tables import PAPER_TABLE3
from repro.engine.obs import human_count
from repro.solvers import PreTransitiveSolver
from repro.synth import BENCHMARK_ORDER


@pytest.mark.parametrize("profile", BENCHMARK_ORDER)
def test_table3_row(benchmark, profile, report):
    holder = {}

    def setup():
        holder["store"] = fresh_store(profile)
        return (), {}

    def run():
        solver = PreTransitiveSolver(holder["store"])
        holder["result"] = solver.solve()
        return holder["result"]

    benchmark.pedantic(run, setup=setup, rounds=3, iterations=1)
    result = holder["result"]
    store = holder["store"]
    paper = PAPER_TABLE3[profile]

    pointers = result.pointer_variables()
    relations = result.points_to_relations()
    assert pointers > 0
    assert relations > 0
    # The demand-loading property that makes Table 3's space numbers small:
    assert store.stats.in_core <= store.stats.loaded <= store.stats.in_file

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


def test_table3_emacs_blowup_shape(benchmark, report):
    """The join-point effect: the emacs profile produces far larger
    points-to relation counts per pointer than nethack/gcc (§5)."""
    results = {}
    for profile in ("nethack", "gcc", "emacs"):
        result = PreTransitiveSolver(fresh_store(profile)).solve()
        results[profile] = (
            result.points_to_relations() / max(result.pointer_variables(), 1)
        )
    assert results["emacs"] > 10 * results["nethack"]
    assert results["emacs"] > 10 * results["gcc"]
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    report.append(
        "[table3] avg pts-set size: "
        + " ".join(f"{k}={v:.1f}" for k, v in results.items())
        + "  (paper: nethack=6.9 gcc=10.9 emacs=1362)"
    )
