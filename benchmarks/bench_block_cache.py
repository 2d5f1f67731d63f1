"""Memory-budget sweep for the keep-or-discard block cache (paper §4).

The paper bounds analyze-phase memory by discarding parsed components and
re-reading them on demand.  This bench runs the scaling profile through
the real on-disk pipeline under a ladder of ``max_core_assignments``
budgets and measures the price of each bound: the re-read (reload) count
of a solve followed by a depend-style reuse pass that re-requests every
block once.

In-run assertions (the CI smoke contract):

* peak ``in_core`` never exceeds the configured budget;
* the points-to result is bit-identical under every budget.

That the reload count is monotone (smaller budgets never re-read less) is
a tier-1 test, ``tests/cla/test_cache.py::TestReloadCostByBudget``, with
a budget sweep of its own.

Knobs: ``REPRO_BENCH_PROFILES`` (first entry names the profile, default
``lucent``), ``REPRO_BENCH_SCALE`` (profile scale override).
"""

import os

import pytest

from repro.cla.cache import BlockCache
from repro.cla.reader import DatabaseStore
from repro.driver.tables import build_database
from repro.solvers import PreTransitiveSolver
from repro.synth import generate

from conftest import profile_scale

PROFILE = os.environ.get("REPRO_BENCH_PROFILES", "lucent").split(",")[0]
SCALE = profile_scale(PROFILE)

#: Budget ladder, resolved against the database's actual shape: unbounded,
#: everything-fits, a tight middle, and statics-only (retain no blocks).
BUDGET_LABELS = ["unbounded", "in_file", "tight", "statics"]

def resolve_budget(label: str, statics: int, in_file: int) -> int | None:
    if label == "unbounded":
        return None
    if label == "in_file":
        return in_file
    if label == "tight":
        return statics + max(1, (in_file - statics) // 8)
    return statics


@pytest.fixture(scope="module")
def database(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("block_cache_db")
    program = generate(PROFILE, scale=SCALE, seed=42)
    path = build_database(program, str(tmp))
    with DatabaseStore.open(path) as probe:
        statics = len(probe.fetch_statics())
        in_file = probe.stats.in_file
    return path, statics, in_file


@pytest.fixture(scope="module")
def baseline_pts(database):
    """Points-to sets of an uncached run — the bit-identity reference."""
    path, _statics, _in_file = database
    with DatabaseStore.open(path) as store:
        result = PreTransitiveSolver(store).solve()
        return {k: v for k, v in result.pts.items() if v}


def solve_and_reuse(cache: BlockCache):
    """The measured workload: solve, then re-request every block once
    (what the depend phase does when it walks loads)."""
    result = PreTransitiveSolver(cache).solve()
    for name in list(cache.block_names()):
        cache.load_block(name)
    return result


@pytest.mark.parametrize("label", BUDGET_LABELS)
def test_budget_point(benchmark, database, baseline_pts, label, report):
    path, statics, in_file = database
    budget = resolve_budget(label, statics, in_file)
    holder = {}

    def setup():
        if "cache" in holder:
            holder["cache"].close()
        holder["cache"] = BlockCache(DatabaseStore.open(path), budget)
        return (), {}

    def run():
        holder["result"] = solve_and_reuse(holder["cache"])
        return holder["result"]

    benchmark.pedantic(run, setup=setup, rounds=3, iterations=1)
    cache = holder["cache"]
    stats = cache.stats
    # The §4 contract: the bound holds at every moment of the run.
    if budget is not None:
        assert stats.peak_in_core <= budget, (
            f"peak in_core {stats.peak_in_core} exceeded budget {budget}"
        )
    assert stats.in_core <= stats.loaded <= stats.in_file
    # Purely a memory/IO trade: bit-identical points-to sets.
    pts = {k: v for k, v in holder["result"].pts.items() if v}
    assert pts == baseline_pts, f"budget {label} changed the result"
    benchmark.extra_info.update({
        "budget": budget if budget is not None else "unbounded",
        "statics": statics,
        "in_file": in_file,
        "peak_in_core": stats.peak_in_core,
        "in_core": stats.in_core,
        "loaded": stats.loaded,
        "reloads": stats.reloads,
        "block_hits": stats.block_hits,
        "block_misses": stats.block_misses,
        "block_evictions": stats.block_evictions,
    })
    report.append(
        f"[block-cache] {PROFILE}@{SCALE:g} budget={label}"
        f"({budget if budget is not None else '∞'}): "
        f"peak={stats.peak_in_core} reloads={stats.reloads} "
        f"hits={stats.block_hits} evictions={stats.block_evictions}"
    )
    cache.close()

