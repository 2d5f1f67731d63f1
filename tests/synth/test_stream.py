"""The streamed ``huge`` tier (synth.stream): chunking, prefixing, and
chunks that stay closed under points-to flow."""

import re

import pytest

from repro.solvers import PreTransitiveSolver
from repro.synth import generate, stream_program

#: The chunk tag of a streamed name: ``u<k>_`` at the start of the name,
#: a file-qualified local, a funcptr slot (``<u0_fp>$ret``) or a field.
_CHUNK = re.compile(r"(?:^|::|<|\.)(u\d+)_")


def test_stream_reaches_target_and_counts_chunks():
    seen = []
    run = stream_program(
        "nethack", target_lines=6000, chunk_scale=0.05,
        on_chunk=lambda chunk, total: seen.append((chunk, total)),
    )
    assert run.source_lines >= 6000
    assert run.chunks == len(seen) >= 2
    assert seen[-1] == (run.chunks, run.source_lines)
    assert run.units > run.chunks  # several files per chunk
    assert run.assignments == run.store.stats.in_file > 0
    assert run.compile_s > 0  # the compile side of source-to-fixpoint


def test_stream_rejects_bad_target():
    with pytest.raises(ValueError):
        stream_program("nethack", target_lines=0)


def test_chunks_are_prefixed_and_disjoint():
    """Chunk k's names all carry the ``u<k>_`` prefix, so streamed units
    can never collide at link time, and no points-to fact crosses from
    one chunk into another."""
    run = stream_program("nethack", target_lines=6000, chunk_scale=0.05)
    result = PreTransitiveSolver(run.store).solve()
    facts = [(p, t) for p, targets in result.pts.items() for t in targets]
    assert facts  # the streamed store actually resolved pointers
    for pointer, target in facts:
        assert _CHUNK.search(pointer).group(1) == \
            _CHUNK.search(target).group(1), (pointer, target)


def test_stream_matches_materialized_chunk():
    """The first streamed chunk's constraints equal compiling the same
    prefixed program by hand — streaming changes residency, not IR."""
    run = stream_program("nethack", target_lines=1, chunk_scale=0.05,
                         seed=42)
    program = generate("nethack", scale=0.05, seed=42, name_prefix="u0_")
    assert run.chunks == 1
    assert run.source_lines == program.source_lines()
    materialized = program.project().units()
    assert run.units == len(materialized)
    assert run.assignments == sum(len(u.assignments) for u in materialized)
