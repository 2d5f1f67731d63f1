"""§5 ablation: caching, cycle elimination and difference propagation.

The paper: "We have observed a slow down by a factor in excess of >50K for
gimp (45,000s c.f. 0.8s user time) when both of these components of the
algorithm are turned off."

At paper scale the degraded configuration is intractable by construction,
so this bench runs the *kernel* that produces the blowup — what gimp's
constraint graph looks like to getLvals(): long copy chains (deep
reachability), sprinkled cycles, and many complex assignments whose
processing queries overlapping regions of the graph every iteration.  With
both optimizations the per-round cost is O(nodes + queries); without them
every query re-walks the chain, O(nodes x queries), and the factor grows
linearly with size — extrapolating to gimp's ~9K complex assignments over
~300K-assignment graphs gives precisely the paper's 10^4-10^5x order.

The third toggle, difference propagation, is measured on its own kernel
(a deref ladder solved over ~n rounds): without the delta discipline every
round re-attempts every already-processed (constraint, lval) pair, O(n^2)
edge-add attempts; with it each pair is processed exactly once, O(n).

``REPRO_ABLATION_N`` overrides the kernel size (CI runs a small scale).
"""

import os
import time

import pytest

from repro.solvers import PreTransitiveSolver
from repro.synth.kernels import ablation_kernel as adversarial_store
from repro.synth.kernels import diff_propagation_kernel

CONFIGS = {
    "cache+cycles": dict(enable_cache=True, enable_cycle_elimination=True),
    "cache-only": dict(enable_cache=True, enable_cycle_elimination=False),
    "cycles-only": dict(enable_cache=False, enable_cycle_elimination=True),
    "neither": dict(enable_cache=False, enable_cycle_elimination=False),
}

#: Difference propagation is ablated on the ladder kernel, which must run
#: fully preloaded (demand loading would process the rungs in benign
#: dependency order and hide the re-walk).
DIFF_CONFIGS = {
    "diff-on": dict(enable_diff_propagation=True, demand_load=False),
    "diff-off": dict(enable_diff_propagation=False, demand_load=False),
}

# chain length == number of complex assignments
SIZE = int(os.environ.get("REPRO_ABLATION_N", "500"))


def run_config(config: str, n: int):
    store = adversarial_store(n)
    solver = PreTransitiveSolver(store, **CONFIGS[config])
    t0 = time.perf_counter()
    result = solver.solve()
    return result, time.perf_counter() - t0, solver.stats.nodes_visited


@pytest.mark.parametrize("config", list(CONFIGS))
def test_ablation(benchmark, config, report):
    holder = {}

    def setup():
        holder["store"] = adversarial_store(SIZE)
        return (), {}

    def run():
        holder["result"] = PreTransitiveSolver(
            holder["store"], **CONFIGS[config]
        ).solve()
        return holder["result"]

    benchmark.pedantic(run, setup=setup, rounds=1, iterations=1)
    benchmark.extra_info["relations"] = (
        holder["result"].points_to_relations()
    )
    report.append(
        f"[ablation] n={SIZE} {config}: "
        f"rel={holder['result'].points_to_relations()}"
    )


def test_ablation_results_identical(benchmark):
    """Optimizations are pure speedups: every configuration computes the
    same fixpoint."""
    expected = None
    for config in CONFIGS:
        result, _, _ = run_config(config, SIZE // 4)
        snapshot = {k: v for k, v in result.pts.items() if v}
        if expected is None:
            expected = snapshot
        else:
            assert snapshot == expected, config
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_ablation_slowdown_is_large_and_grows(benchmark, report):
    """The degraded configuration is orders of magnitude slower, with a
    factor growing ~linearly in size — the trend behind the paper's
    >50,000x at full gimp scale."""
    time_factors = []
    work_factors = []
    for n in (SIZE // 2, SIZE):
        _, base_t, base_w = run_config("cache+cycles", n)
        _, slow_t, slow_w = run_config("neither", n)
        time_factors.append(slow_t / max(base_t, 1e-9))
        work_factors.append(slow_w / max(base_w, 1))
    report.append(
        f"[ablation] slowdown at n={SIZE // 2}: {time_factors[0]:.0f}x "
        f"(work {work_factors[0]:.0f}x), n={SIZE}: {time_factors[1]:.0f}x "
        f"(work {work_factors[1]:.0f}x) "
        f"(paper at full gimp scale: >50,000x)"
    )
    # The absolute wall-time factor only develops at full kernel size;
    # smoke runs (REPRO_ABLATION_N small) still check the growth trend.
    if SIZE >= 400:
        assert time_factors[1] > 10, "degraded config must be >>10x slower"
    # Growth asserted on the deterministic traversal-work counter (wall
    # time is too noisy under a loaded test machine).
    assert work_factors[1] > 1.5 * work_factors[0], (
        "traversal work factor must grow with size"
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


@pytest.mark.parametrize("config", list(DIFF_CONFIGS))
def test_diff_propagation(benchmark, config, report):
    holder = {}

    def setup():
        holder["store"] = diff_propagation_kernel(SIZE)
        return (), {}

    def run():
        solver = PreTransitiveSolver(
            holder["store"], **DIFF_CONFIGS[config]
        )
        holder["result"] = solver.solve()
        holder["solver"] = solver
        return holder["result"]

    benchmark.pedantic(run, setup=setup, rounds=1, iterations=1)
    m = holder["solver"].stats
    benchmark.extra_info["relations"] = (
        holder["result"].points_to_relations()
    )
    benchmark.extra_info["delta_lvals_processed"] = m.delta_lvals_processed
    benchmark.extra_info["lvals_skipped_by_diff"] = m.lvals_skipped_by_diff
    report.append(
        f"[ablation] ladder n={SIZE} {config}: "
        f"processed={m.delta_lvals_processed} "
        f"skipped={m.lvals_skipped_by_diff} "
        f"rel={holder['result'].points_to_relations()}"
    )


def test_diff_propagation_cuts_work_and_preserves_result(benchmark, report):
    """Difference propagation is a pure speedup: identical points-to sets,
    edge-add attempts collapsed from O(n^2) to O(n) on the ladder."""
    n = max(SIZE // 4, 16)
    results = {}
    for config, kwargs in DIFF_CONFIGS.items():
        solver = PreTransitiveSolver(diff_propagation_kernel(n), **kwargs)
        result = solver.solve()
        results[config] = (
            {k: v for k, v in result.pts.items() if v},
            solver.stats.delta_lvals_processed,
        )
    pts_on, processed_on = results["diff-on"]
    pts_off, processed_off = results["diff-off"]
    assert pts_on == pts_off
    assert processed_on < processed_off / 4, (
        f"diff propagation must cut edge-add attempts: "
        f"{processed_on} vs {processed_off}"
    )
    report.append(
        f"[ablation] ladder n={n}: diff cuts lvals processed "
        f"{processed_off} -> {processed_on}"
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
