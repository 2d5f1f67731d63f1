"""repro — a reproduction of "Ultra-fast Aliasing Analysis using CLA:
A Million Lines of C Code in a Second" (Heintze & Tardieu, PLDI 2001).

The package implements the paper's full system in pure Python:

* :mod:`repro.cfront` — a from-scratch C frontend (lexer, preprocessor,
  parser) standing in for the paper's ckit/SML frontend;
* :mod:`repro.ir` — program objects and the five primitive-assignment
  kinds, with field-based / field-independent struct models and Table 1
  dependence-strength classification;
* :mod:`repro.cla` — the compile-link-analyze database architecture:
  sectioned binary object files, a linker, and mmap demand loading (§4);
* :mod:`repro.solvers` — the pre-transitive graph algorithm (§5) plus the
  transitive-closure (on the shared bit-vector core), Steensgaard and
  one-level-flow baselines;
* :mod:`repro.depend` — the forward data-dependence tool (§2);
* :mod:`repro.synth` — synthetic benchmark generation matching Table 2;
* :mod:`repro.engine` — the pipeline, one entry point per stage
  (:class:`~repro.engine.pipeline.Pipeline`), and the telemetry spine;
* :mod:`repro.driver` — the :class:`Workspace` project type and the
  ``repro-cla`` CLI.

Quickstart::

    from repro import Workspace

    project = Workspace()
    project.add_source("a.c", "int x, *p; void f(void) { p = &x; }")
    print(project.points_to().points_to("p"))   # frozenset({'x'})
"""

from .driver.incremental import Workspace
from .engine.pipeline import CompileOptions

__version__ = "1.0.0"

__all__ = ["CompileOptions", "Workspace", "__version__"]
