"""Pin every solver's fixpoint and counters on a fixed corpus.

Each case solves a fresh store with one solver and records the sha256 of
its points-to map, every :class:`~repro.engine.stats.SolverStats` field
and the store's ``LoadStats.snapshot()``.  A refactor of the solvers must
reproduce all three exactly: the same answers, and the same work counted
the same way.  The pins do not depend on ``PYTHONHASHSEED``.

The corpus is six ``repro.synth`` profiles at seed 7 under both field
models, plus two hand-shaped kernels; every registered solver runs on
each, and the pre-transitive solver also with demand loading off.  After
a deliberate change to what a solver computes or counts, regenerate
``solver_pins.json`` with::

    PYTHONPATH=src python tests/solvers/test_solver_pins.py > tests/solvers/solver_pins.json

and say why in the change.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.solvers import SOLVERS
from repro.synth import generate
from repro.synth.kernels import ablation_kernel, diff_propagation_kernel

SEED = 7

#: profile -> scale
PROFILES = {
    "nethack": 0.1,
    "gcc": 0.05,
    "emacs": 0.05,
    "vortex": 0.05,
    "lucent": 0.01,
    "povray": 0.03,
}

KERNELS = {
    "ablation_kernel(60)": lambda: ablation_kernel(60),
    "diff_propagation_kernel(40)": lambda: diff_propagation_kernel(40),
}

#: run label -> (solver, constructor keywords)
RUNS = {name: (name, {}) for name in SOLVERS}
RUNS["pretransitive-nodemand"] = ("pretransitive", {"demand_load": False})

PINS_PATH = Path(__file__).parent / "solver_pins.json"

_UNITS: dict[str, tuple] = {}


def _store_factory(corpus: str):
    """A callable returning a fresh, never-solved store for ``corpus``."""
    if corpus in KERNELS:
        return KERNELS[corpus]
    if corpus not in _UNITS:
        spec, model = corpus.split("/")
        profile, scale = spec.split("@")
        program = generate(profile, scale=float(scale), seed=SEED)
        workspace = program.project(field_based=model == "field_based")
        _UNITS[corpus] = (workspace.pipeline, workspace.units())
    pipeline, units = _UNITS[corpus]
    return lambda: pipeline.link_units(units)


CORPORA = [
    f"{profile}@{scale}/{model}"
    for profile, scale in PROFILES.items()
    for model in ("field_based", "field_independent")
] + list(KERNELS)

CASES = [f"{corpus}/{run}" for corpus in CORPORA for run in RUNS]


def fingerprint(case: str) -> dict:
    corpus, run = case.rsplit("/", 1)
    solver, options = RUNS[run]
    store = _store_factory(corpus)()
    result = SOLVERS[solver](store, **options).solve()
    pts = {name: sorted(result.pts[name]) for name in result.pts}
    digest = hashlib.sha256(
        json.dumps(pts, sort_keys=True).encode()
    ).hexdigest()
    return {
        "pts": digest,
        "stats": result.stats.as_dict(),
        "load": list(store.stats.snapshot()),
    }


PINS = json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else {}


def test_pins_cover_every_case():
    assert sorted(PINS) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_solver_pin(case):
    assert fingerprint(case) == PINS[case]


if __name__ == "__main__":
    print(json.dumps({case: fingerprint(case) for case in CASES},
                     indent=1, sort_keys=True))
