"""The ``huge`` synthetic tier: a million-line code base as a stream.

The paper's headline is "a million lines of C code in a second" of
*solver* time.  A materialized million-line corpus is hundreds of
megabytes of text plus the IR of every unit at once; this module instead
*streams* one: chunk by chunk, generate a prefixed mini-program
(:func:`~repro.synth.generate` with ``name_prefix="u<k>_"``, so chunks
cannot collide at link time), compile it unit-by-unit straight into a
:class:`~repro.cla.store.MemoryStore` via
:meth:`~repro.cla.store.MemoryStore.absorb_unit`, and drop the text and
IR before the next chunk.  Peak residency is one chunk's sources plus
the growing constraint database — the same shape as the paper's own
compile-then-analyze split (§4).

The chunks are independent mini-programs (each has its own globals,
structs, functions, and funcptrs).  MLoC/s numbers from :mod:`benchmarks.bench_mloc` and
``repro-cla report`` divide *solver* seconds into the streamed source
lines, matching the paper's metric; ``StreamResult.compile_s`` adds the
compile side, for the source-to-fixpoint rate beside it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..cla.store import MemoryStore
from ..engine.pipeline import CompileOptions, compile_source
from .generator import generate

#: the default tier target: comfortably past one million source lines
DEFAULT_TARGET_LINES = 1_200_000


@dataclass
class StreamResult:
    """What one streaming run produced (the store plus its provenance)."""

    store: MemoryStore
    profile: str
    source_lines: int
    chunks: int
    units: int
    assignments: int
    #: seconds spent compiling the units and absorbing them into the
    #: store (generating the sources is not counted)
    compile_s: float


def stream_program(
    profile: str = "gcc",
    target_lines: int = DEFAULT_TARGET_LINES,
    seed: int = 42,
    chunk_scale: float = 0.3,
    field_based: bool = True,
    store: MemoryStore | None = None,
    on_chunk=None,
) -> StreamResult:
    """Stream ``profile`` mini-programs into one store until the
    cumulative source size reaches ``target_lines``.

    ``chunk_scale`` sets the mini-program size (the generator's usual
    ``scale``); ``on_chunk(chunk_index, total_lines)`` is called after
    each absorbed chunk (progress hooks, tests).  The corpus is never
    materialized — only one chunk's text and IR exist at a time.
    """
    if target_lines < 1:
        raise ValueError(f"target_lines must be >= 1, got {target_lines}")
    store = store if store is not None else MemoryStore([])
    total_lines = 0
    units = 0
    chunk = 0
    compile_s = 0.0
    while total_lines < target_lines:
        program = generate(
            profile, scale=chunk_scale, seed=seed + chunk,
            name_prefix=f"u{chunk}_",
        )
        options = CompileOptions(field_based=field_based)
        options.virtual_files[program.header_name] = program.header
        for filename, text in program.files.items():
            start = time.perf_counter()
            store.absorb_unit(
                compile_source(text, filename=filename, options=options)
            )
            compile_s += time.perf_counter() - start
            units += 1
        total_lines += program.source_lines()
        chunk += 1
        if on_chunk is not None:
            on_chunk(chunk, total_lines)
    return StreamResult(
        store=store,
        profile=profile,
        source_lines=total_lines,
        chunks=chunk,
        units=units,
        assignments=store.stats.in_file,
        compile_s=compile_s,
    )
