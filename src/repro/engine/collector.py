"""Phases that run with Python's cyclic garbage collector paused.

The compile and the link build no reference cycle, so reference counting
frees everything they allocate, and every automatic collection that
fires inside them walks the heap and frees nothing.
:func:`collector_paused` takes those traversals away; no garbage is kept
any longer.  A phase whose allocations outlive it (the in-memory link's
store, a solver's graph) gains nothing from a pause: the collector only
scans those objects later.
"""

from __future__ import annotations

import functools
import gc
from typing import Callable, TypeVar

F = TypeVar("F", bound=Callable)


def collector_paused(fn: F) -> F:
    """Run ``fn`` with automatic cyclic collection paused.

    ``gc.disable()`` while ``fn`` runs and ``gc.enable()`` after it, also
    when it raises.  A caller that had already turned the collector off
    keeps it off, so a nested use never turns it back on before the outer
    one ends.

    The pause is process-wide: every thread runs paused meanwhile.  The
    serve daemon's session lock already serialises the requests that
    compile.  A phase may run paused only if it leaves no cyclic garbage;
    ``tests/engine/test_collector.py`` pins that for each paused phase.
    """

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused  # type: ignore[return-value]
