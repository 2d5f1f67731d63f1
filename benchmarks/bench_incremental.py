"""§4's interactive-tool claim, measured: editing one file costs one
recompile plus an in-memory relink, not a whole-code-base rebuild.

"if we are to build interactive tools based on an analysis, then it is
important to avoid re-parsing/reprocessing the entire code base when
changes are made to one or two files."
"""

import time

import pytest

from conftest import profile_scale
from repro.driver.incremental import Workspace
from repro.synth import generate
from repro.synth.generator import HEADER_NAME

PROFILE = "gcc"


def fill(workspace: Workspace, program) -> None:
    workspace.add_header(HEADER_NAME, program.header)
    for name, text in sorted(program.files.items()):
        workspace.add_source(name, text)


def test_incremental_rebuild_speed(benchmark, report, tmp_path):
    program = generate(PROFILE, scale=profile_scale(PROFILE), seed=42)
    workspace = Workspace(cache_dir=str(tmp_path / "cache"))
    fill(workspace, program)

    t0 = time.perf_counter()
    workspace.build()
    cold = time.perf_counter() - t0
    files = len(program.files)
    assert workspace.stats.compiled == files

    # Edit one file: append a new function touching a shared global.
    victim = sorted(program.files)[-1]
    edited = program.files[victim] + (
        "\nint *cla_probe;\n"
        "void cla_edit_probe(void) { cla_probe = g1_0; }\n"
    )

    def rebuild():
        workspace.update_source(victim, edited + f"/* {rebuild.n} */")
        rebuild.n += 1
        return workspace.build()

    rebuild.n = 0
    benchmark.pedantic(rebuild, rounds=3, iterations=1)
    warm = benchmark.stats.stats.mean
    assert workspace.stats.compiled == 1
    assert workspace.stats.reused == files - 1
    speedup = cold / max(warm, 1e-9)
    report.append(
        f"[incremental] {PROFILE}: cold build {cold:.2f}s "
        f"({files} files), one-file edit {warm:.2f}s "
        f"-> {speedup:.1f}x faster rebuild"
    )
    assert speedup > 2, "editing one file must beat a full rebuild"
