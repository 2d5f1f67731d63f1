"""Dependence-strength classification of C operations (paper Table 1).

The dependence analysis cares how much of a value's *shape and size* an
operation preserves: changing the type of ``y`` forces a type change of
``x`` for ``x = y`` (direct) and very likely for ``x = y + 1`` (strong), but
never for ``x = !y`` (none).

============  ==========  ==========
operation     argument 1  argument 2
============  ==========  ==========
+ - | & ^     Strong      Strong
``*``         Weak        Weak
% >> <<       Weak        None
unary + -     Strong      n/a
&& ||         None        None
!             None        n/a
============  ==========  ==========

Everything the table omits is classified here by the same metric and
documented inline (the paper's own implementation necessarily did the same
for full C).
"""

from __future__ import annotations

import enum
from functools import total_ordering


@total_ordering
class Strength(enum.Enum):
    """How strongly an operation propagates type-change pressure.

    Ordered ``NONE < WEAK < STRONG < DIRECT``; a dependence chain is as
    strong as its weakest edge, so combining uses :func:`min`.
    """

    NONE = 0
    WEAK = 1
    STRONG = 2
    DIRECT = 3  # plain copy, no operation at all

    def __lt__(self, other: "Strength") -> bool:
        if not isinstance(other, Strength):
            return NotImplemented
        return self.value < other.value

    @property
    def symbol(self) -> str:
        """The step separator of a rendered chain: ``=`` direct, ``!``
        strong, ``~`` weak, ``0`` none."""
        return _SYMBOLS[self._value_]


#: Chain-step separators by strength value (NONE .. DIRECT).
_SYMBOLS = ("0", "~", "!", "=")


#: (strength of argument 1, strength of argument 2) per binary operator.
_BINARY: dict[str, tuple[Strength, Strength]] = {
    # Table 1 rows.
    "+": (Strength.STRONG, Strength.STRONG),
    "-": (Strength.STRONG, Strength.STRONG),
    "|": (Strength.STRONG, Strength.STRONG),
    "&": (Strength.STRONG, Strength.STRONG),
    "^": (Strength.STRONG, Strength.STRONG),
    "*": (Strength.WEAK, Strength.WEAK),
    "%": (Strength.WEAK, Strength.NONE),
    ">>": (Strength.WEAK, Strength.NONE),
    "<<": (Strength.WEAK, Strength.NONE),
    "&&": (Strength.NONE, Strength.NONE),
    "||": (Strength.NONE, Strength.NONE),
    # Not in Table 1; classified by the shape-and-size metric:
    # division shrinks like %, and its divisor, like a shift count,
    # does not reach the result's representation.
    "/": (Strength.WEAK, Strength.NONE),
    # Comparisons yield a boolean — the operands' width never matters.
    "==": (Strength.NONE, Strength.NONE),
    "!=": (Strength.NONE, Strength.NONE),
    "<": (Strength.NONE, Strength.NONE),
    ">": (Strength.NONE, Strength.NONE),
    "<=": (Strength.NONE, Strength.NONE),
    ">=": (Strength.NONE, Strength.NONE),
    # Comma: value is argument 2, unchanged.
    ",": (Strength.NONE, Strength.DIRECT),
}

_UNARY: dict[str, Strength] = {
    # Table 1 rows.
    "+": Strength.STRONG,
    "-": Strength.STRONG,
    "!": Strength.NONE,
    # Bitwise complement preserves width exactly, like unary minus.
    "~": Strength.STRONG,
    # ++/-- preserve the object's own value shape.
    "++": Strength.STRONG,
    "--": Strength.STRONG,
    # sizeof of an expression never depends on the value.
    "sizeof": Strength.NONE,
}


def binary_strengths(op: str) -> tuple[Strength, Strength]:
    """Strength contributed by each operand of binary ``op``.

    Unknown operators are treated as STRONG/STRONG: sound for dependence
    tracking (never silently drops a dependence).
    """
    return _BINARY.get(op, (Strength.STRONG, Strength.STRONG))


def unary_strength(op: str) -> Strength:
    return _UNARY.get(op, Strength.STRONG)


def combine(outer: Strength, inner: Strength) -> Strength:
    """Strength of a value that flowed through two nested operations."""
    return min(outer, inner)


def table1_rows() -> list[tuple[str, str, str]]:
    """The rows of the paper's Table 1, for the bench that regenerates it."""

    def name(s: Strength) -> str:
        return s.name.capitalize()

    return [
        ("+, -, |, &, ^", name(Strength.STRONG), name(Strength.STRONG)),
        ("*", name(Strength.WEAK), name(Strength.WEAK)),
        ("%, >>, <<", name(Strength.WEAK), name(Strength.NONE)),
        ("unary: +, -", name(_UNARY["+"]), "n/a"),
        ("&&, ||", name(Strength.NONE), name(Strength.NONE)),
        ("!", name(_UNARY["!"]), "n/a"),
    ]
