"""Table 4: effect of a field-independent treatment of structs.

For every profile, run the pre-transitive solver under both struct models
and compare points-to relations and time.  Expected shape (paper): the
field-independent model produces substantially more relations and more
time on struct-heavy code bases (gimp, lucent, povray: paper ratios
5.1-9.8x in relations, up to 300x in time), while neither model dominates
in precision (§3's p/q/r/s example, asserted in the unit tests).
"""

import pytest

from conftest import fresh_store, profile_scale
from repro.driver.tables import PAPER_TABLE4
from repro.engine.obs import human_count
from repro.solvers import PreTransitiveSolver
from repro.synth import BENCHMARK_ORDER

STRUCT_HEAVY = ("povray", "gimp", "lucent")


@pytest.mark.parametrize("profile", BENCHMARK_ORDER)
@pytest.mark.parametrize("model", ["field-based", "field-independent"])
def test_table4_cell(benchmark, profile, model, report):
    field_based = model == "field-based"
    holder = {}

    def setup():
        holder["store"] = fresh_store(profile, field_based=field_based)
        return (), {}

    def run():
        holder["result"] = PreTransitiveSolver(holder["store"]).solve()
        return holder["result"]

    benchmark.pedantic(run, setup=setup, rounds=3, iterations=1)
    result = holder["result"]
    benchmark.extra_info.update({
        "relations": result.points_to_relations(),
        "pointers": result.pointer_variables(),
    })
    paper_fb, paper_fi = PAPER_TABLE4[profile]
    paper = paper_fb if field_based else paper_fi
    report.append(
        f"[table4] {profile}@{profile_scale(profile):g} {model}: "
        f"ptrs={result.pointer_variables()} "
        f"rel={human_count(result.points_to_relations())}  "
        f"(paper: ptrs={paper[0]} rel={human_count(paper[1])} "
        f"utime={paper[2]}s)"
    )


@pytest.mark.parametrize("profile", STRUCT_HEAVY)
def test_table4_blowup_shape(benchmark, profile, report):
    """On struct-heavy profiles the field-independent model must produce
    clearly more points-to relations (the paper's headline Table 4 gap)."""
    fb = PreTransitiveSolver(fresh_store(profile, field_based=True)).solve()

    def run_fi():
        return PreTransitiveSolver(
            fresh_store(profile, field_based=False)
        ).solve()

    fi = benchmark.pedantic(run_fi, rounds=1, iterations=1)
    ratio = fi.points_to_relations() / max(fb.points_to_relations(), 1)
    paper_ratio = (PAPER_TABLE4[profile][1][1]
                   / PAPER_TABLE4[profile][0][1])
    assert ratio > 1.3, (
        f"{profile}: field-independent should blow up "
        f"(got ratio {ratio:.2f})"
    )
    report.append(
        f"[table4] {profile} FI/FB relation ratio: {ratio:.2f} "
        f"(paper: {paper_ratio:.2f})"
    )
