"""The end-to-end benchmark's workloads (pure data; imports no program code).

Every workload drives the same user session on its own generated code
base: start the serve daemon over a workspace (set-up), then repeat
rounds of one cold build from C source to a solved fixpoint, re-analyses
of the linked database, and serve traffic (closed-loop reads, each batch
followed by one edit).  The workloads differ in the code base and in the
make-up of a round, so each one puts a different layer on the blocking
path (see README.md).
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Workload:
    #: synth profile and per-chunk scale: the code base streams ``chunks``
    #: independent, name-prefixed mini-programs, which averages out how
    #: much one seed's program differs from the next
    profile: str
    scale: float
    chunks: int
    #: open + solve passes on the freshly built database, per round
    passes: int
    #: batches of reads, each followed by one edit, per round
    edits: int


WORKLOADS: dict[str, Workload] = {
    # Many small gcc units with sparse points-to sets: compiling C source
    # is most of every operation that touches it.
    "cold-build": Workload("gcc", 0.01, 10, passes=2, edits=3),
    # emacs-profile chunks (join_factor 0.7): dense points-to sets, so
    # block loading, the solve and decoding carry the analyze passes and
    # the reads.
    "analyze-emacs": Workload("emacs", 0.03, 4, passes=4, edits=4),
    # Reads and edits dominate a round; every edit recompiles one unit,
    # relinks and re-solves.
    "serve-mixed": Workload("gcc", 0.02, 5, passes=1, edits=4),
}


def quick(workload: Workload) -> Workload:
    """The same workload at the tiny size the self-test runs."""
    return replace(workload, scale=0.01, chunks=min(workload.chunks, 2))
