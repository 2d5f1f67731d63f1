"""The ``huge`` tier: MLoC/s of solver time on a streamed corpus.

The paper's headline — "a million lines of C code in a second" — is a
*solver*-time claim: the compile/link phases are amortized into the
build, and analysis alone runs at MLoC/s rates (§6, Table 3).  This
bench reproduces the metric end to end: :func:`repro.synth.stream_program`
streams mini-programs through compile→absorb into one
:class:`~repro.cla.store.MemoryStore` without ever materializing the
corpus, then the solve alone is timed.

The streamed target defaults to ``DEFAULT_TARGET_LINES`` (1.2M source
lines).  That takes minutes of *compile* time, so CI smoke runs bound it
with ``REPRO_MLOC_TARGET`` (see .github/workflows/ci.yml); the MLoC/s
number itself only ever divides by solver seconds.

``extra_info`` carries ``source_loc``, ``solver_s`` and ``mloc_per_s``
per point; the conftest hook lands them in ``BENCH_mloc.json`` and
``repro-cla report`` surfaces the best point as the headline.
"""

import os
import time

from repro.solvers import PreTransitiveSolver
from repro.synth import DEFAULT_TARGET_LINES, stream_program

PROFILE = "gcc"


def target_lines() -> int:
    override = os.environ.get("REPRO_MLOC_TARGET")
    if override:
        return int(override)
    return DEFAULT_TARGET_LINES


_STREAM: dict[int, object] = {}


def streamed():
    """Stream the corpus once per session; solvers get fresh stores not
    — the store is read-only to the solve (discard() only trims the
    already-loaded watermark), so one streamed store serves every
    point."""
    target = target_lines()
    if target not in _STREAM:
        _STREAM[target] = stream_program(PROFILE, target_lines=target)
    return _STREAM[target]


def _mloc_info(result_holder, streamed_run, solver_s: float) -> dict:
    loc = streamed_run.source_lines
    return {
        "source_loc": loc,
        "chunks": streamed_run.chunks,
        "units": streamed_run.units,
        "assignments": streamed_run.assignments,
        "relations": result_holder["result"].points_to_relations(),
        "solver_s": solver_s,
        "mloc_per_s": (loc / 1e6) / solver_s if solver_s else 0.0,
    }


def test_mloc_sequential(benchmark, report):
    run = streamed()
    holder = {}

    def solve():
        start = time.perf_counter()
        holder["result"] = PreTransitiveSolver(run.store).solve()
        holder["solver_s"] = time.perf_counter() - start
        return holder["result"]

    benchmark.pedantic(solve, rounds=3, iterations=1)
    info = _mloc_info(holder, run, holder["solver_s"])
    benchmark.extra_info.update(info)
    report.append(
        f"[mloc] sequential {PROFILE}: loc={info['source_loc']} "
        f"solver_s={info['solver_s']:.3f} "
        f"mloc_per_s={info['mloc_per_s']:.2f}"
    )
