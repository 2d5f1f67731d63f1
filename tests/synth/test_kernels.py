"""Tests for the hand-shaped constraint kernels."""

from repro.solvers import (
    PreTransitiveSolver,
    SteensgaardSolver,
    TransitiveSolver,
)
from repro.synth.kernels import ablation_kernel, join_point_kernel


class TestAblationKernel:
    def test_all_configs_same_fixpoint(self):
        expected = None
        for cache in (True, False):
            for cycles in (True, False):
                result = PreTransitiveSolver(
                    ablation_kernel(60), enable_cache=cache,
                    enable_cycle_elimination=cycles,
                ).solve()
                snapshot = {k: v for k, v in result.pts.items() if v}
                if expected is None:
                    expected = snapshot
                else:
                    assert snapshot == expected, (cache, cycles)

    def test_every_alias_sees_the_target(self):
        result = PreTransitiveSolver(ablation_kernel(40)).solve()
        for k in range(40):
            assert result.points_to(f"h{k}") == {"t"}

    def test_stores_deposit_into_target(self):
        result = PreTransitiveSolver(ablation_kernel(20)).solve()
        # *h_k = y_k with pts(h_k)={t}: nothing flows since y_k holds no
        # lvals — but the chain itself must fully resolve.
        assert result.points_to("v0") == {"t"}

    def test_degraded_config_does_more_work(self):
        fast = PreTransitiveSolver(ablation_kernel(150))
        fast.solve()
        slow = PreTransitiveSolver(
            ablation_kernel(150), enable_cache=False,
            enable_cycle_elimination=False,
        )
        slow.solve()
        assert slow.stats.nodes_visited > 20 * fast.stats.nodes_visited


class TestJoinPointKernel:
    def test_relations_are_product(self):
        result = PreTransitiveSolver(join_point_kernel(30, 20)).solve()
        # hub holds all 20 lvals; each of 30 readers inherits them; each
        # of 20 feeders holds its own: 20 + 30*20 + 20 = 640.
        assert result.points_to("hub") == {f"t{i}" for i in range(20)}
        assert result.points_to_relations() == 20 + 30 * 20 + 20

    def test_pretransitive_visits_less_than_relations(self):
        solver = PreTransitiveSolver(join_point_kernel(200, 100))
        result = solver.solve()
        # The point of the pre-transitive design: the answer has 20K+
        # relations, but computing it traverses only O(nodes) once.
        assert result.points_to_relations() > 20_000
        assert solver.stats.nodes_visited < 2_000

    def test_agreement_across_solvers(self):
        stores = [join_point_kernel(25, 15) for _ in range(2)]
        a = PreTransitiveSolver(stores[0]).solve()
        b = TransitiveSolver(stores[1]).solve()
        for name in set(a.pts) | set(b.pts):
            assert a.points_to(name) == b.points_to(name), name

    def test_steensgaard_collapses_hub(self):
        s = SteensgaardSolver(join_point_kernel(10, 8)).solve()
        # Unification merges all feeders' pointees through the hub.
        assert s.points_to("src0") == {f"t{i}" for i in range(8)}
