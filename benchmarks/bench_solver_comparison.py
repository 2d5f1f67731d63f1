"""Solver comparison: the §6 related-systems discussion as one experiment.

Runs all four solvers (pre-transitive, transitively-closed worklist,
bit-vector, Steensgaard) on the same workloads.  Expected shape, from the
paper's §3/§6 narrative and the numbers it cites from the literature:

* Steensgaard (unification) is the fastest and least precise — Das' 60s
  for 2.2 MLOC vs. hundreds of seconds for prior Andersen systems;
* the pre-transitive algorithm beats the transitively-closed baseline,
  and the gap widens on join-point-heavy workloads (emacs profile) where
  the closed graph pays for propagating huge sets edge by edge;
* the subset-based solvers agree exactly; Steensgaard is a superset.
"""

import os
import time

import pytest

from conftest import fresh_store, profile_scale
from repro.solvers import SOLVERS
from repro.synth import BENCHMARK_ORDER

#: ``REPRO_BENCH_PROFILES=nethack,emacs`` restricts the sweep (CI smoke
#: runs a single small profile).
PROFILES = [
    p for p in (
        os.environ.get("REPRO_BENCH_PROFILES", "nethack,vortex,emacs,gcc")
        .split(",")
    ) if p
]


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("solver", list(SOLVERS))
def test_solver_on_profile(benchmark, solver, profile, report):
    holder = {}

    def setup():
        holder["store"] = fresh_store(profile)
        return (), {}

    def run():
        holder["result"] = SOLVERS[solver](holder["store"]).solve()
        return holder["result"]

    benchmark.pedantic(run, setup=setup, rounds=3, iterations=1)
    result = holder["result"]
    benchmark.extra_info["relations"] = result.points_to_relations()
    report.append(
        f"[solvers] {profile}@{profile_scale(profile):g} {solver}: "
        f"rel={result.points_to_relations()}"
    )


def test_subset_solvers_agree_at_scale(benchmark, report):
    """The two Andersen solvers compute identical results on a full
    synthetic benchmark (not just unit-test programs)."""
    base = SOLVERS["pretransitive"](fresh_store("vortex")).solve()
    other = SOLVERS["transitive"](fresh_store("vortex")).solve()
    for name in set(base.pts) | set(other.pts):
        assert base.points_to(name) == other.points_to(name), name
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    report.append("[solvers] subset solvers agree exactly on vortex profile")


def test_steensgaard_fastest_but_coarsest(benchmark, report):
    """Unification trades precision for speed (§3): fewer seconds, more
    relations, on the join-heavy emacs profile."""
    times, relations = {}, {}
    for solver in ("pretransitive", "steensgaard"):
        store = fresh_store("emacs")
        t0 = time.perf_counter()
        result = SOLVERS[solver](store).solve()
        times[solver] = time.perf_counter() - t0
        relations[solver] = result.points_to_relations()
    assert relations["steensgaard"] >= relations["pretransitive"]
    report.append(
        f"[solvers] emacs: pretransitive {times['pretransitive']:.3f}s/"
        f"{relations['pretransitive']} rel; steensgaard "
        f"{times['steensgaard']:.3f}s/{relations['steensgaard']} rel"
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
