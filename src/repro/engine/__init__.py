"""The instrumented pipeline engine.

One spine for the whole system (a single instrumented seam that batching
and caching work can land on):

* :mod:`repro.engine.pipeline` — :class:`Pipeline`: compile → link →
  analyze → depend as named, composable, traced stages.
  :class:`repro.driver.incremental.Workspace`, the project type, builds
  through it.
* :mod:`repro.engine.obs` — :func:`span` (timing regions published on
  the event bus), the :class:`Tracer` sink, the process-wide
  :class:`MetricsRegistry`, and the point-measurement helpers
  (:func:`measure`, :func:`format_table`, ...).
* :mod:`repro.engine.stats` — the uniform :class:`SolverStats` record all
  four solvers report through :mod:`repro.solvers.base`.
* :mod:`repro.engine.collector` — :func:`collector_paused`, which runs
  the compile and the link with the cycle collector paused.

``pipeline`` is imported lazily: the low layers (``cla``, ``solvers``)
import ``engine.obs``/``engine.stats``, and ``engine.pipeline`` imports
those low layers back, so an eager import here would be circular.
"""

from .obs import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    Measurement,
    MetricsRegistry,
    Span,
    Tracer,
    format_table,
    human_bytes,
    human_count,
    measure,
    peak_rss_mb,
    span,
)
from .stats import SolverStats

_PIPELINE_EXPORTS = (
    "BuildError",
    "CompileOptions",
    "Pipeline",
)

__all__ = [
    "REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "Measurement",
    "MetricsRegistry",
    "SolverStats",
    "Span",
    "Tracer",
    "format_table",
    "human_bytes",
    "human_count",
    "measure",
    "peak_rss_mb",
    "span",
    *_PIPELINE_EXPORTS,
]


def __getattr__(name: str):
    if name in _PIPELINE_EXPORTS:
        from . import pipeline

        return getattr(pipeline, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
