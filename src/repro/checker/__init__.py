"""Correctness subsystem: soundness oracle, differential fuzzer, shrinker.

The pre-transitive solver earns its speed from interacting optimizations
(deliberately stale caching, unification-based cycle elimination,
difference propagation, demand loading) — exactly the machinery where a
subtle bug yields a *plausible but unsound* points-to set.  This package
checks results independently of any solver:

* :mod:`repro.checker.oracle` — verifies a
  :class:`~repro.solvers.base.PointsToResult` is a closed model of the
  constraint set, by direct enumeration over the store;
* :mod:`repro.checker.fuzz` — generates random programs via
  :mod:`repro.synth.generator`, runs every registered solver plus the
  pretransitive toggle matrix, and cross-checks the results;
* :mod:`repro.checker.shrink` — delta-debugs a failing program down to a
  minimal C repro written to disk.

The fuzzer and the shrinker (and :mod:`repro.synth` under them) load on
first use: a daemon that certifies its fixpoints needs the oracle alone.
"""

import importlib

from .oracle import CheckReport, Violation, check_result

#: name -> the submodule that defines it, loaded when first looked up
_LAZY = {
    "fuzz": "fuzz", "FuzzConfig": "fuzz", "FuzzFailure": "fuzz",
    "FuzzOutcome": "fuzz", "run_fuzz": "fuzz",
    "shrink": "shrink", "ShrinkResult": "shrink", "ddmin": "shrink",
    "shrink_program": "shrink",
}

__all__ = [
    "CheckReport", "Violation", "check_result",
    "FuzzConfig", "FuzzFailure", "FuzzOutcome", "run_fuzz",
    "ShrinkResult", "ddmin", "shrink_program",
]


def __getattr__(name: str):
    # PEP 562: only names not yet bound here come here.
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = importlib.import_module(f"{__name__}.{module}")
    return loaded if name == module else getattr(loaded, name)
