"""C abstract syntax tree.

Module named ``cast`` ("C AST"), not to be confused with the builtin
``cast`` function of :mod:`typing`.  Nodes are small dataclasses; every node
carries a :class:`~repro.cfront.source.Location`.

The AST is complete enough to represent full C programs; the IR lowering in
:mod:`repro.ir.lower` consumes it and only cares about value flow, but the
parser builds faithful trees for statements and control flow too (the
dependence tool reports source locations, so bodies must be walked).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ctypes import CType
from .source import Location


@dataclass
class Node:
    location: Location = field(default_factory=Location.unknown, kw_only=True)


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


@dataclass
class Expr(Node):
    pass


@dataclass
class Identifier(Expr):
    name: str


@dataclass
class IntLiteral(Expr):
    value: int
    text: str = ""


@dataclass
class FloatLiteral(Expr):
    value: float
    text: str = ""


@dataclass
class CharLiteral(Expr):
    value: int
    text: str = ""


@dataclass
class StringLiteral(Expr):
    value: str  # decoded contents, without quotes


@dataclass
class Unary(Expr):
    """Prefix unary operator: one of ``* & + - ! ~ ++ -- sizeof``."""

    op: str
    operand: Expr


@dataclass
class Postfix(Expr):
    """Postfix ``++`` or ``--``."""

    op: str
    operand: Expr


@dataclass
class Binary(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass
class Assignment(Expr):
    """``lhs op rhs`` where op is ``=`` or a compound form like ``+=``."""

    op: str
    lhs: Expr
    rhs: Expr


@dataclass
class Conditional(Expr):
    cond: Expr
    then: Expr
    otherwise: Expr


@dataclass
class Call(Expr):
    func: Expr
    args: list[Expr]


@dataclass
class Member(Expr):
    """``base.field`` (arrow=False) or ``base->field`` (arrow=True)."""

    base: Expr
    field_name: str
    arrow: bool


@dataclass
class Index(Expr):
    base: Expr
    index: Expr


@dataclass
class Cast(Expr):
    to_type: CType
    operand: Expr


@dataclass
class SizeofType(Expr):
    of_type: CType


@dataclass
class Comma(Expr):
    parts: list[Expr]


@dataclass
class InitList(Expr):
    """A brace initializer ``{ a, b, ... }``; designators are flattened."""

    items: list[Expr]


@dataclass
class CompoundLiteral(Expr):
    """C99 ``(type){init}``."""

    of_type: CType
    init: InitList


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------


@dataclass
class Stmt(Node):
    pass


@dataclass
class ExprStmt(Stmt):
    expr: Expr | None  # None for the empty statement ';'


@dataclass
class Compound(Stmt):
    items: list["Stmt | Decl"] = field(default_factory=list)


@dataclass
class If(Stmt):
    cond: Expr
    then: Stmt
    otherwise: Stmt | None = None


@dataclass
class While(Stmt):
    cond: Expr
    body: Stmt


@dataclass
class DoWhile(Stmt):
    body: Stmt
    cond: Expr


@dataclass
class For(Stmt):
    init: "Expr | list[Decl] | None"
    cond: Expr | None
    step: Expr | None
    body: Stmt


@dataclass
class Return(Stmt):
    value: Expr | None


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


@dataclass
class Goto(Stmt):
    label: str


@dataclass
class Label(Stmt):
    name: str
    stmt: Stmt


@dataclass
class Switch(Stmt):
    cond: Expr
    body: Stmt


@dataclass
class Case(Stmt):
    value: Expr
    stmt: Stmt


@dataclass
class Default(Stmt):
    stmt: Stmt


# --------------------------------------------------------------------------
# Declarations
# --------------------------------------------------------------------------


@dataclass
class Decl(Node):
    """One declared name: variable, function prototype, or typedef."""

    name: str
    type: CType
    storage: str | None = None  # "static", "extern", "typedef", "register", "auto"
    init: Expr | None = None
    #: Function in whose body this declaration appears (None at file scope).
    #: Filled by the parser; the CLA database records it (Section 4).
    enclosing_function: str | None = None

    @property
    def is_typedef(self) -> bool:
        return self.storage == "typedef"


@dataclass
class FunctionDef(Node):
    name: str
    type: CType  # a FunctionType
    storage: str | None
    params: list[Decl]
    body: Compound


@dataclass
class TranslationUnit(Node):
    filename: str = "<unit>"
    items: list[Decl | FunctionDef] = field(default_factory=list)
    #: Errors recovered from in tolerant mode (empty in strict mode).
    diagnostics: list = field(default_factory=list)
    #: Every ``#include`` preprocessing resolved: (name, angled,
    #: including file) -> the :class:`SourceFile` it read.
    includes: dict = field(default_factory=dict, compare=False, repr=False)

    def functions(self) -> list[FunctionDef]:
        return [it for it in self.items if isinstance(it, FunctionDef)]

    def declarations(self) -> list[Decl]:
        return [it for it in self.items if isinstance(it, Decl)]


# --------------------------------------------------------------------------
# Generic traversal
# --------------------------------------------------------------------------


def child_expressions(node: Node) -> list[Expr]:
    """The direct sub-expressions of any node (statements included)."""
    match node:
        case Unary(operand=e) | Postfix(operand=e) | Cast(operand=e):
            return [e]
        case Binary(left=a, right=b) | Assignment(lhs=a, rhs=b):
            return [a, b]
        case Conditional(cond=c, then=t, otherwise=o):
            return [c, t, o]
        case Call(func=f, args=args):
            return [f, *args]
        case Member(base=b):
            return [b]
        case Index(base=b, index=i):
            return [b, i]
        case Comma(parts=parts) | InitList(items=parts):
            return list(parts)
        case CompoundLiteral(init=i):
            return [i]
        case ExprStmt(expr=e):
            return [e] if e is not None else []
        case If(cond=c):
            return [c]
        case While(cond=c) | DoWhile(cond=c) | Switch(cond=c):
            return [c]
        case For(init=i, cond=c, step=s):
            return [e for e in (i, c, s) if isinstance(e, Expr)]
        case Return(value=v):
            return [v] if v is not None else []
        case Case(value=v):
            return [v]
        case Decl(init=i):
            return [i] if i is not None else []
        case _:
            return []


def child_statements(node: Node) -> list["Stmt | Decl"]:
    """The direct sub-statements (and block-scope decls) of a node."""
    match node:
        case Compound(items=items):
            return list(items)
        case If(then=t, otherwise=o):
            return [t] if o is None else [t, o]
        case While(body=b) | DoWhile(body=b) | Switch(body=b):
            return [b]
        case For(init=i, body=b):
            decls = list(i) if isinstance(i, list) else []
            return [*decls, b]
        case Label(stmt=s) | Case(stmt=s) | Default(stmt=s):
            return [s]
        case FunctionDef(body=b):
            return [b]
        case _:
            return []


def walk(node: Node):
    """Yield ``node`` and every node beneath it, preorder."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        stack.extend(reversed(child_expressions(current)))
        stack.extend(reversed(child_statements(current)))
