#!/usr/bin/env python3
"""Solver shoot-out on a generated benchmark code base.

Generates a gimp-profile synthetic code base (see DESIGN.md for how the
synthetic suite stands in for the paper's benchmarks), compiles and links
it through real object files, then runs all four solvers against the
mmap'd database, printing a Table 3-style row for each.

Run with::

    python examples/solver_shootout.py [scale]

The optional ``scale`` (default 0.05) multiplies the Table 2 assignment
budgets; 1.0 is paper-sized.
"""

import os
import sys
import tempfile

from repro.cla.reader import DatabaseStore
from repro.driver.tables import build_database
from repro.engine.obs import format_table, human_count, measure
from repro.solvers import SOLVERS
from repro.synth import generate


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.05
    print(f"generating gimp-profile code base at scale {scale} ...")
    program = generate("gimp", scale=scale, seed=42)
    print(f"  {len(program.files)} files, {program.source_lines()} "
          f"source lines")

    with tempfile.TemporaryDirectory() as tmp:
        print("compiling and linking (the CLA compile & link phases) ...")
        built = measure(lambda: build_database(program, tmp))
        db_path = built.result
        print(f"  database: {os.path.getsize(db_path)} bytes in "
              f"{built.real_seconds:.1f}s")

        headers = ["solver", "real", "user", "pointers", "relations",
                   "in core", "loaded", "in file"]
        rows = []
        for name in SOLVERS:
            store = DatabaseStore.open(db_path)
            m = measure(lambda: SOLVERS[name](store).solve())
            result = m.result
            rows.append([
                name,
                f"{m.real_seconds:.2f}s",
                f"{m.user_seconds:.2f}s",
                str(result.pointer_variables()),
                human_count(result.points_to_relations()),
                str(store.stats.in_core),
                str(store.stats.loaded),
                str(store.stats.in_file),
            ])
            store.close()
        print()
        print(format_table(headers, rows, title="analyze phase:"))
        print()
        print("expected shape: the subset solvers agree on relations;")
        print("steensgaard reports more (coarser) in less time; only the")
        print("pre-transitive solver loads fewer assignments than the file")
        print("holds (demand loading).")


if __name__ == "__main__":
    main()
