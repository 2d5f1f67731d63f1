#!/usr/bin/env python3
"""The CLA architecture's interactive-tool story (paper §4).

"if we are to build interactive tools based on an analysis, then it is
important to avoid re-parsing/reprocessing the entire code base when
changes are made to one or two files."

This example builds a synthetic multi-file code base, then simulates an
edit-analyze loop: each edit recompiles exactly one file, relinks the
units the workspace holds in memory, and reruns the points-to analysis —
while a naive pipeline would reparse everything.  Undoing the edits
recompiles nothing: the original unit is read back from the object-file
cache.

Run with::

    python examples/incremental_workspace.py
"""

import tempfile
import time

from repro.driver.incremental import Workspace
from repro.synth import generate
from repro.synth.generator import HEADER_NAME


def main() -> None:
    program = generate("gcc", scale=0.1, seed=42)
    print(f"code base: {len(program.files)} files, "
          f"{program.source_lines()} source lines")

    with tempfile.TemporaryDirectory() as cache:
        workspace = Workspace(cache_dir=cache)
        workspace.add_header(HEADER_NAME, program.header)
        for name, text in sorted(program.files.items()):
            workspace.add_source(name, text)

        t0 = time.perf_counter()
        result = workspace.points_to()
        cold = time.perf_counter() - t0
        print(f"cold build+analyze: {cold:.2f}s "
              f"(compiled {workspace.stats.compiled} files); "
              f"{result.pointer_variables()} pointers")

        victim = sorted(program.files)[0]
        for round_number in (1, 2, 3):
            edited = program.files[victim] + (
                f"\nint probe_target_{round_number};"
                f"\nint *probe_{round_number};"
                f"\nvoid probe_fn_{round_number}(void) "
                f"{{ probe_{round_number} = &probe_target_{round_number}; }}\n"
            )
            t0 = time.perf_counter()
            workspace.update_source(victim, edited)
            result = workspace.points_to()
            warm = time.perf_counter() - t0
            pts = result.points_to(f"probe_{round_number}")
            print(f"edit {round_number}: {warm:.2f}s "
                  f"(recompiled {workspace.stats.compiled}, "
                  f"reused {workspace.stats.reused}) "
                  f"pts(probe_{round_number}) = {sorted(pts)} "
                  f"[{cold / warm:.1f}x faster than cold]")

        t0 = time.perf_counter()
        workspace.update_source(victim, program.files[victim])
        result = workspace.points_to()
        undo = time.perf_counter() - t0
        print(f"undo: {undo:.2f}s (recompiled {workspace.stats.compiled}, "
              f"read back {workspace.stats.read} from the cache); "
              f"{result.pointer_variables()} pointers")


if __name__ == "__main__":
    main()
