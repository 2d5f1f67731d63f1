"""§4's load-on-demand claim, over real object files on disk.

Compiles each profile to object files, links them, and analyzes the mmap'd
database twice: once with demand loading (the CLA architecture's point)
and once with full preload.  Expected shape: demand mode loads a strict
subset of the file's assignments — the paper's Table 3 shows e.g. gimp
loading 144,534 of 344,156 — with identical analysis results, and the
retained (in-core) set is far smaller still thanks to the
discard-simple-assignments strategy.
"""

import tempfile

import pytest

from conftest import profile_scale
from repro.cla.reader import DatabaseStore
from repro.driver.tables import build_database
from repro.solvers import PreTransitiveSolver
from repro.synth import generate

PROFILES = ["nethack", "gcc", "gimp"]

_DB_CACHE: dict[str, str] = {}
_TMPDIR = tempfile.TemporaryDirectory()


def database_for(profile: str) -> str:
    if profile not in _DB_CACHE:
        program = generate(profile, scale=profile_scale(profile), seed=42)
        _DB_CACHE[profile] = build_database(program, _TMPDIR.name)
        # build_database writes program.cla; give each profile its own.
        import os, shutil

        unique = os.path.join(_TMPDIR.name, f"{profile}.cla")
        shutil.move(_DB_CACHE[profile], unique)
        _DB_CACHE[profile] = unique
    return _DB_CACHE[profile]


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("mode", ["demand", "full"])
def test_demand_loading(benchmark, profile, mode, report):
    path = database_for(profile)
    holder = {}

    def setup():
        holder["store"] = DatabaseStore.open(path)
        return (), {}

    def run():
        holder["result"] = PreTransitiveSolver(
            holder["store"], demand_load=(mode == "demand")
        ).solve()
        return holder["result"]

    benchmark.pedantic(run, setup=setup, rounds=3, iterations=1)
    store = holder["store"]
    benchmark.extra_info.update({
        "in_core": store.stats.in_core,
        "loaded": store.stats.loaded,
        "in_file": store.stats.in_file,
    })
    if mode == "demand":
        assert store.stats.loaded < store.stats.in_file, (
            "demand loading must skip irrelevant assignments"
        )
    assert store.stats.in_core < store.stats.loaded
    report.append(
        f"[demand] {profile} {mode}: in-core/loaded/in-file = "
        f"{store.stats.in_core}/{store.stats.loaded}/{store.stats.in_file}"
    )
    store.close()

