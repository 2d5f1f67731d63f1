"""Span recorder owned by the end-to-end benchmark.

Spans are recorded from the benchmark's own files, around its calls into
each layer of the program; nothing here imports :mod:`repro`, so a change
to the program's own tracer (``repro.engine.obs``) cannot shift what this
benchmark measures.

A span has a name, a start and end (``time.perf_counter`` seconds), the
id of the span that caused it, and a trace id shared by every span of one
operation (one build, one analyze pass, one request): a span opened with
no parent starts a new trace.  Spans stay in memory until
:meth:`Recorder.write_jsonl` writes them out at exit.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Iterator


@dataclass(slots=True)
class Span:
    id: int
    name: str
    trace: str
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory spans with parent links and per-operation trace ids."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def _open(self, name: str, start: float) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(
            id=len(self.spans), name=name,
            trace=(parent.trace if parent is not None
                   else f"{name}-{len(self.spans)}"),
            parent=parent.id if parent is not None else None, start=start,
        )
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Time the body as a child of the innermost open span."""
        span = self._open(name, time.perf_counter())
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float) -> Span:
        """Record an interval the caller already timed (the request path,
        where a context manager per call would add to what is measured)."""
        span = self._open(name, start)
        span.end = end
        return span

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the part its children cover."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        out = {}
        for span in self.spans:
            covered = 0.0
            edge = span.start
            for child in sorted(children.get(span.id, ()),
                                key=lambda c: c.start):
                lo = max(child.start, edge)
                hi = min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            # Children lie inside their parent, so only rounding can take
            # this below zero.
            out[span.id] = max(0.0, span.seconds - covered)
        return out

    def write_jsonl(self, path: str) -> None:
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                record = asdict(span)
                record["self"] = selfs[span.id]
                fh.write(json.dumps(record) + "\n")
