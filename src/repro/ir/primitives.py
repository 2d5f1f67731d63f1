"""Primitive assignments — the rows of the CLA database.

The compile phase breaks every statement down into assignments among program
objects with at most one dereference on each side (§5): simple assignments
``x = y``, base assignments ``x = &y``, and the complex forms ``*x = y``,
``x = *y`` and ``*x = *y``.  These five kinds are exactly the columns of the
paper's Table 2.

Each primitive optionally records the operation it flowed through and that
operation's :class:`~repro.ir.strength.Strength` (§4: "corresponding to a
program assignment ``x = y + z`` we obtain two primitive assignments
``x = y`` and ``x = z`` ... each would retain information about the '+'
operation") — the dependence analysis needs both to print informative
chains.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..cfront.source import Location
from .strength import Strength


class PrimitiveKind(enum.IntEnum):
    """The five assignment forms of the intermediate language."""

    COPY = 0  # x = y          (simple)
    ADDR = 1  # x = &y         (base)
    STORE = 2  # *x = y        (complex)
    LOAD = 3  # x = *y         (complex)
    STORE_LOAD = 4  # *x = *y  (complex)


@dataclass(slots=True)
class PrimitiveAssignment:
    """One database row: ``dst (op)= src`` under one of the five kinds."""

    kind: PrimitiveKind
    dst: str  # canonical object name (the pointer for STORE/STORE_LOAD)
    src: str  # canonical object name (the pointer for LOAD/STORE_LOAD)
    strength: Strength = Strength.DIRECT
    op: str = ""  # operation the value flowed through, "" if none
    location: Location = field(default_factory=Location.unknown)

    def __eq__(self, other: object) -> bool:
        # isinstance, not the generated class test: a row decoded from an
        # object file (a subclass that builds its location on first read)
        # equals the assignment it was written from.
        if not isinstance(other, PrimitiveAssignment):
            return NotImplemented
        return (
            self.kind == other.kind and self.dst == other.dst
            and self.src == other.src and self.strength == other.strength
            and self.op == other.op and self.location == other.location
        )

    def render(self) -> str:
        lhs = {"STORE": "*", "STORE_LOAD": "*"}.get(self.kind.name, "")
        rhs = {
            "ADDR": "&", "LOAD": "*", "STORE_LOAD": "*",
        }.get(self.kind.name, "")
        via = f"  [{self.op}:{self.strength.name.lower()}]" if self.op else ""
        return f"{lhs}{self.dst} = {rhs}{self.src}{via}"

    def __str__(self) -> str:
        return self.render()


@dataclass(slots=True)
class FunctionRecord:
    """Argument/return standardized variables of a function definition.

    Stored in the function's database block; the analyzer reads it when the
    function's address reaches a function pointer, to link formals and
    actuals at analysis time (§4).
    """

    function: str  # canonical function object name
    args: list[str]  # f$arg1, f$arg2, ...
    ret: str  # f$ret
    variadic: bool = False
    location: Location = field(default_factory=Location.unknown)


@dataclass(slots=True)
class CallSiteRecord:
    """One call site: caller function -> callee function or pointer.

    §4: the compile phase "extracts assignments and function
    calls/returns/definitions"; these records are the calls part, stored
    in their own object-file section (added later without touching any
    existing reader — the paper's "new sections can be transparently
    added" property).  The value-flow assignments alone cannot recover a
    call graph exactly: a call like ``f()`` whose arguments and result
    carry no pointers leaves no assignment behind.
    """

    caller: str  # canonical function name, or file::<toplevel>
    target: str  # callee function (direct) or pointer object (indirect)
    indirect: bool = False
    location: Location = field(default_factory=Location.unknown)


@dataclass(slots=True)
class IndirectCallRecord:
    """One indirect call site ``(*p)(...)`` / ``p(...)``.

    Ties the pointer object to the standardized ``<p>$argN``/``<p>$ret``
    variables its call sites populate.
    """

    pointer: str  # canonical name of the pointer object
    args: list[str]  # <p>$arg1, ...
    ret: str  # <p>$ret
    location: Location = field(default_factory=Location.unknown)


def assignment_mix(
    assignments: list[PrimitiveAssignment],
) -> dict[str, int]:
    """Histogram of the five kinds, keyed like Table 2's column heads."""
    labels = {
        PrimitiveKind.COPY: "x = y",
        PrimitiveKind.ADDR: "x = &y",
        PrimitiveKind.STORE: "*x = y",
        PrimitiveKind.STORE_LOAD: "*x = *y",
        PrimitiveKind.LOAD: "x = *y",
    }
    counts = {label: 0 for label in labels.values()}
    for a in assignments:
        counts[labels[a.kind]] += 1
    return counts
