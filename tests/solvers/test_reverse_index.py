"""The reverse points-to index equals the brute-force reverse map.

:meth:`~repro.solvers.base.PointsToResult.pointed_by` builds target ->
pointers from the id-space masks, grouping pointers with equal sets, and
keeps it with the result.  Every solver's index must equal the
definition, ``{t: sorted(p for p in pts if t in pts[p])}``, and the
name-ordered forward view must equal ``sorted(pts[p])``.
"""

import pytest

from repro.solvers import SOLVERS
from repro.synth import generate

PROFILES = ("emacs", "gimp")


@pytest.fixture(scope="module", params=PROFILES)
def new_store(request):
    """A callable returning a fresh, never-solved store."""
    workspace = generate(request.param, scale=0.01, seed=1).project()
    units = workspace.units()
    return lambda: workspace.pipeline.link_units(units)


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_index_is_the_reverse_map(new_store, solver):
    result = SOLVERS[solver](new_store()).solve()
    pts = result.pts
    targets = set().union(*pts.values())
    brute = {t: sorted(p for p in pts if t in pts[p]) for t in targets}
    assert not result.pointed_by_built
    index = result.pointed_by()
    assert {t: list(pointers) for t, pointers in index.items()} == brute
    assert result.pointed_by_built and result.pointed_by() is index
    assert result.pointed_by_pairs == sum(len(pts[p]) for p in pts) > 0
    for name in pts:
        assert pts.sorted_targets(name) == tuple(sorted(pts[name]))
    assert pts.sorted_targets("no such object") == ()
