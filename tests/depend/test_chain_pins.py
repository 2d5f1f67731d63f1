"""Pin the tie-insensitive part of every chain answer on a fixed corpus.

A chain search settles each dependent with its best (strength, distance)
key; which of several equally good chains it prints depends on the
order edges are relaxed in.  The pins cover the part no tie-break can
move: for every source-level name of a case, the sorted ``(dependent,
strength, distance)`` triples of its ``chain`` answer and the
``summarize`` counts.  A speed change to ``depend/`` or to the reverse
points-to index must reproduce them exactly.

The corpus is every ``repro.synth`` profile at scale 0.01, seed 1, linked
in memory, plus every case of ``tests/cla/corpus.py`` (the profiles at
seed 0 and the paper's figures), read back from the linked database.
Each is solved by the pre-transitive solver.  After a deliberate change
to what a chain computes, regenerate ``chain_pins.json`` with::

    PYTHONPATH=src python -m tests.depend.test_chain_pins > tests/depend/chain_pins.json

and say why in the change.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

import pytest

from repro.cla.reader import DatabaseStore
from repro.cla.store import simple_name_of
from repro.depend import DependenceAnalysis, summarize
from repro.solvers import PreTransitiveSolver
from repro.synth import BENCHMARK_ORDER, generate

from ..cla import corpus

SCALE = 0.01
SEED = 1

CASES = ([f"synth/{profile}" for profile in BENCHMARK_ORDER]
         + [f"corpus/{case}" for case in corpus.CASES])

PINS_PATH = Path(__file__).parent / "chain_pins.json"


def chain_answers(store) -> dict[str, dict]:
    """Every source-level name of ``store`` -> its chain's dependents as
    sorted ``[name, strength, distance]`` triples, and its counts."""
    points_to = PreTransitiveSolver(store).solve()
    analysis = DependenceAnalysis(store, points_to)
    names = sorted({simple_name_of(n) for n in store.object_names()
                    if not n.startswith("$")})
    answers = {}
    for name in names:
        targets = store.find_targets(name)
        if not targets:
            continue
        result = analysis.analyze(targets)
        answers[name] = {
            "dependents": sorted(
                [d.name, d.strength.name, d.distance]
                for d in result.dependents.values()),
            "counts": summarize(result),
        }
    return answers


def case_answers(case: str) -> dict[str, dict]:
    kind, name = case.split("/")
    if kind == "synth":
        workspace = generate(name, scale=SCALE, seed=SEED).project()
        return chain_answers(workspace.store())
    with tempfile.TemporaryDirectory() as tmp:
        database = corpus.build_case(name, os.path.join(tmp, name))[-1]
        store = DatabaseStore(database)
        try:
            return chain_answers(store)
        finally:
            store.close()


def fingerprint(case: str) -> dict:
    answers = case_answers(case)
    totals = {"direct": 0, "strong": 0, "weak": 0, "none": 0}
    for answer in answers.values():
        for key, count in answer["counts"].items():
            totals[key] += count
    digest = hashlib.sha256(
        json.dumps(answers, sort_keys=True).encode()).hexdigest()
    return {"targets": len(answers), "counts": totals, "sha256": digest}


PINS = json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else {}


def test_pins_cover_every_case():
    assert sorted(PINS) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_chain_pin(case):
    assert fingerprint(case) == PINS[case]


if __name__ == "__main__":
    print(json.dumps({case: fingerprint(case) for case in CASES},
                     indent=1, sort_keys=True))
