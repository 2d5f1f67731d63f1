"""Points-to solvers over the CLA database.

* :class:`PreTransitiveSolver` — the paper's contribution (§5): a
  pre-transitive constraint graph with cached, cycle-eliminating
  reachability and demand loading.
* :class:`TransitiveSolver` — the classic transitively-closed worklist
  Andersen baseline the paper compares against.  The bit-vector
  implementation §4 mentions is now the shared integer core it runs on
  (int-bitmask points-to sets over interned ids), not a solver of its own.
* :class:`SteensgaardSolver` — the unification-based analysis (§3/§4).
* :class:`OneLevelFlowSolver` — Das's hybrid "unification with directional
  assignments" (§3/§6's strongest unification-based competitor).

All consume a :class:`~repro.cla.store.ConstraintStore` and produce a
:class:`PointsToResult`; ``SOLVERS[name](store).solve()`` is the only way
a fixpoint is computed.
"""

from .base import BaseSolver, PointsToResult, SolverStats
from .onelevel import OneLevelFlowSolver
from .pretransitive import PreTransitiveSolver
from .steensgaard import SteensgaardSolver
from .transitive import TransitiveSolver

SOLVERS = {
    "pretransitive": PreTransitiveSolver,
    "transitive": TransitiveSolver,
    "steensgaard": SteensgaardSolver,
    "onelevel": OneLevelFlowSolver,
}

__all__ = [
    "BaseSolver", "PointsToResult", "SolverStats",
    "OneLevelFlowSolver", "PreTransitiveSolver", "SteensgaardSolver",
    "TransitiveSolver", "SOLVERS",
]
