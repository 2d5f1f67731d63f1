"""A fixed corpus of real CLA files for the reader's differential and
format-pin tests.

Every ``repro.synth`` profile at scale 0.01 (seed 0), compiled to one
object file per source file and linked, plus the paper's Figure 1, 3 and
4 programs (taken from ``examples/``), each compiled and linked on its
own.  The bytes depend only on the compiler, the writer and the linker.

Print the sha256 pins of a fresh build (the contents of
``format_pins.json``) with::

    PYTHONPATH=src python tests/cla/corpus.py
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import tempfile
from pathlib import Path

from repro.cla.linker import link_object_files
from repro.cla.writer import write_unit
from repro.driver.tables import build_database
from repro.engine.pipeline import compile_source
from repro.synth import BENCHMARK_ORDER, generate

SCALE = 0.01
SEED = 0
EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

#: case -> (example script, module constant holding the C source, filename)
FIGURES = {
    "figure1": ("figure1_dependence.py", "FIGURE1", "eg1.c"),
    "figure3": ("figure3_deduction.py", "FIGURE3", "f3.c"),
    "figure4": ("figure4_objectfile.py", "FIGURE4", "a.c"),
}

CASES = list(BENCHMARK_ORDER) + list(FIGURES)


def figure_source(case: str) -> tuple[str, str]:
    """The C source of one figure program and its filename."""
    script, constant, filename = FIGURES[case]
    spec = importlib.util.spec_from_file_location(
        f"_corpus_{case}", EXAMPLES / script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return getattr(module, constant), filename


def build_case(case: str, directory: str) -> list[str]:
    """Write one case's object files and linked database under
    ``directory``; returns their paths, the database last."""
    os.makedirs(directory, exist_ok=True)
    if case in FIGURES:
        text, filename = figure_source(case)
        obj = os.path.join(directory, filename + ".o")
        write_unit(compile_source(text, filename=filename), obj)
        database = os.path.join(directory, "program.cla")
        link_object_files([obj], database)
    else:
        database = build_database(
            generate(case, scale=SCALE, seed=SEED), directory)
    objects = sorted(
        os.path.join(directory, name) for name in os.listdir(directory)
        if name.endswith(".o")
    )
    return objects + [database]


def pins(corpus: dict[str, list[str]]) -> dict[str, str]:
    """``case/file`` -> sha256 of the file's bytes."""
    out = {}
    for case, paths in corpus.items():
        for path in paths:
            with open(path, "rb") as f:
                digest = hashlib.sha256(f.read()).hexdigest()
            out[f"{case}/{os.path.basename(path)}"] = digest
    return out


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        corpus = {case: build_case(case, os.path.join(tmp, case))
                  for case in CASES}
        print(json.dumps(pins(corpus), indent=1, sort_keys=True))
