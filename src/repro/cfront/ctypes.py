"""C type representations.

The analyses in this system are flow-insensitive and value-oriented, so the
type layer's jobs are: (1) know which declarator produced which shape
(pointer / array / function), (2) resolve struct/union fields to their
declaring aggregate (the field-based model treats *``S.x``*, not *``x``*, as
the analysis object), and (3) classify scalars for the dependence analysis'
narrowing-conversion reasoning.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field


class CType:
    """Base class for all C types."""

    qualifiers: frozenset[str] = frozenset()

    def is_pointer(self) -> bool:
        return isinstance(self, PointerType)

    def is_function(self) -> bool:
        return isinstance(self, FunctionType)

    def is_integral(self) -> bool:
        return isinstance(self, (IntType, EnumType))

    def strip(self) -> "CType":
        """Peel arrays: the object an array expression denotes in our
        value analysis is its element (index-independent model, §6)."""
        t: CType = self
        while isinstance(t, ArrayType):
            t = t.element
        return t

    def pointee(self) -> "CType | None":
        t = self.strip()
        if isinstance(t, PointerType):
            return t.target
        return None

    def may_hold_pointer(self) -> bool:
        """Can a value of this type carry a pointer?

        Aggregates may via their fields; integrals may via casts, but the
        analysis (like the paper's) only tracks pointers stored in
        pointer-typed or unknown-typed objects plus aggregate assignment.
        """
        t = self.strip()
        return isinstance(
            t, (PointerType, FunctionType, StructType, UnionType, UnknownType)
        )


@dataclass(frozen=True)
class VoidType(CType):
    qualifiers: frozenset[str] = frozenset()

    def __str__(self) -> str:
        return _quals(self.qualifiers) + "void"


@dataclass(frozen=True)
class IntType(CType):
    """Any integral scalar: char/short/int/long/long long, signed/unsigned."""

    kind: str = "int"  # "char", "short", "int", "long", "long long", "_Bool"
    signed: bool = True
    qualifiers: frozenset[str] = frozenset()

    #: Conventional sizes used for narrowing-conversion reasoning (the
    #: dependence analysis' raison d'etre).  We adopt ILP32 like the paper's
    #: Pentium/Linux target.
    _SIZES = {"_Bool": 1, "char": 1, "short": 2, "int": 4, "long": 4,
              "long long": 8}

    @property
    def size(self) -> int:
        return self._SIZES[self.kind]

    def __str__(self) -> str:
        sign = "" if self.signed else "unsigned "
        return _quals(self.qualifiers) + sign + self.kind


@dataclass(frozen=True)
class FloatType(CType):
    kind: str = "double"  # "float", "double", "long double"
    qualifiers: frozenset[str] = frozenset()

    _SIZES = {"float": 4, "double": 8, "long double": 12}

    @property
    def size(self) -> int:
        return self._SIZES[self.kind]

    def __str__(self) -> str:
        return _quals(self.qualifiers) + self.kind


@dataclass(frozen=True)
class PointerType(CType):
    target: CType = VoidType()
    qualifiers: frozenset[str] = frozenset()

    def __str__(self) -> str:
        return f"{self.target} *{_quals(self.qualifiers, lead=' ')}".rstrip()


@dataclass(frozen=True)
class ArrayType(CType):
    element: CType = IntType()
    length: int | None = None  # None: incomplete or VLA

    def __str__(self) -> str:
        n = "" if self.length is None else str(self.length)
        return f"{self.element}[{n}]"


@dataclass(frozen=True)
class Field:
    name: str
    type: CType
    bitwidth: int | None = None  # bit-field width, if any

    def __str__(self) -> str:
        suffix = f" : {self.bitwidth}" if self.bitwidth is not None else ""
        return f"{self.type} {self.name}{suffix}"


_anon_counter = itertools.count()


def fresh_anon_tag(kind: str) -> str:
    """A unique tag for an anonymous struct/union/enum."""
    return f"<anonymous-{kind}-{next(_anon_counter)}>"


@dataclass(eq=False)
class StructType(CType):
    """A struct type.

    Mutable because C permits forward references: ``struct S;`` creates the
    type, a later definition fills in ``fields``.  Identity (``is``) is the
    right equality for tagged aggregates; two structs with the same tag in
    one translation unit are the same object after scope resolution.
    """

    tag: str
    fields: list[Field] | None = None  # None until defined
    qualifiers: frozenset[str] = frozenset()

    kind_name = "struct"

    @property
    def is_complete(self) -> bool:
        return self.fields is not None

    def field_named(self, name: str) -> Field | None:
        for f in self.fields or ():
            if f.name == name:
                return f
            # C11 anonymous struct/union members inject their fields.
            if not f.name and isinstance(f.type, (StructType, UnionType)):
                inner = f.type.field_named(name)
                if inner is not None:
                    return inner
        return None

    def __str__(self) -> str:
        return f"{_quals(self.qualifiers)}{self.kind_name} {self.tag}"


class UnionType(StructType):
    kind_name = "union"


@dataclass(eq=False)
class EnumType(CType):
    tag: str
    enumerators: list[tuple[str, int]] = field(default_factory=list)
    qualifiers: frozenset[str] = frozenset()

    def __str__(self) -> str:
        return f"{_quals(self.qualifiers)}enum {self.tag}"


@dataclass(frozen=True)
class Param:
    name: str | None
    type: CType

    def __str__(self) -> str:
        return f"{self.type} {self.name}" if self.name else str(self.type)


@dataclass(frozen=True)
class FunctionType(CType):
    return_type: CType = IntType()
    params: tuple[Param, ...] = ()
    variadic: bool = False
    #: K&R-style or empty-parens declaration: parameter list unknown.
    unspecified_params: bool = False

    def __str__(self) -> str:
        if self.unspecified_params:
            inner = ""
        else:
            parts = [str(p) for p in self.params]
            if self.variadic:
                parts.append("...")
            inner = ", ".join(parts) or "void"
        return f"{self.return_type} (*)({inner})"


@dataclass(frozen=True)
class UnknownType(CType):
    """Used when a type cannot be resolved (e.g. unparsed construct).

    The analysis treats unknown-typed objects conservatively as possibly
    pointer-bearing.
    """

    def __str__(self) -> str:
        return "<unknown>"


def _quals(qualifiers: frozenset[str], lead: str = "") -> str:
    if not qualifiers:
        return ""
    return lead + " ".join(sorted(qualifiers)) + " "


def with_qualifiers(t: CType, qualifiers: set[str] | frozenset[str]) -> CType:
    """Return ``t`` with extra qualifiers merged in (best-effort).

    Qualifiers are irrelevant to the analyses, so mutable aggregate types are
    returned unchanged rather than copied (copying would break identity).
    """
    if not qualifiers:
        return t
    merged = t.qualifiers | frozenset(qualifiers)
    if isinstance(t, (StructType, UnionType, EnumType)):
        return t
    if isinstance(t, VoidType):
        return VoidType(merged)
    if isinstance(t, IntType):
        return IntType(t.kind, t.signed, merged)
    if isinstance(t, FloatType):
        return FloatType(t.kind, merged)
    if isinstance(t, PointerType):
        return PointerType(t.target, merged)
    return t
