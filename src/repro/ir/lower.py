"""Lowering C ASTs to primitive assignments (the CLA compile phase proper).

Every expression is decomposed into assignments among program objects with
at most one dereference per side, introducing temporaries for nested ``*``
and ``&`` (§3: "it is easy to deal with nested uses of * and & through the
addition of new temporary variables (we remark that considerable
implementation effort is required to avoid introducing too many temporary
variables)").  We avoid temporaries by algebraic normalisation — ``*&x``
collapses to ``x``, ``&*p`` to ``p`` — and only materialise one for double
dereferences, address-of-rvalue, and call/conditional results.

Struct model (§3):

* **field-based** (the paper's default): ``x.f`` denotes the object
  ``S.f`` — one object per field of each struct *type*, the base is ignored.
* **field-independent**: ``x.f`` denotes the whole object ``x``;
  ``p->f`` denotes ``*p``.

Functions use standardized argument/return variables (§4): a definition
``int f(x, y) { ... return z; }`` yields ``x = f$arg1``, ``y = f$arg2`` and
``f$ret = z``; a call ``w = f(a, b)`` yields ``f$arg1 = a``, ``f$arg2 = b``,
``w = f$ret``.  Indirect calls go through ``<p>$argN``/``<p>$ret`` names
bound to the *pointer* and are linked to callees at analysis time.

Allocation sites are fresh locations; constant strings are ignored unless
``track_strings`` is set (§6's default setup).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from ..cfront import cast as A
from ..cfront.ctypes import (
    ArrayType,
    CType,
    FunctionType,
    IntType,
    PointerType,
    StructType,
    UnionType,
    UnknownType,
)
from ..cfront.source import Location, count_source_lines
from . import objects as O
from .objects import ObjectKind, ProgramObject
from .primitives import (
    CallSiteRecord,
    FunctionRecord,
    IndirectCallRecord,
    PrimitiveAssignment,
    PrimitiveKind,
)
from .strength import Strength, binary_strengths, combine, unary_strength

#: Allocation primitives treated as fresh heap locations (§6 setup (a)).
ALLOCATORS = {
    "malloc", "calloc", "realloc", "valloc", "memalign", "alloca",
    "strdup", "strndup", "xmalloc", "xcalloc", "xrealloc",
    "g_malloc", "g_malloc0", "g_realloc",
}

#: Library functions that return their first argument (C standard:
#: "returns the value of dest").  Modelling this keeps idioms like
#: ``p = strcpy(buf, s)`` precise: p aliases buf, not some opaque return.
RETURNS_FIRST_ARG = {
    "strcpy", "strncpy", "strcat", "strncat", "memcpy", "memmove",
    "memset", "strtok",
}


# ---------------------------------------------------------------------------
# Values: the shapes an evaluated expression can take
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Value:
    """A normalised expression value: REF x, DEREF x, ADDR x, or NONE."""

    shape: str  # "ref" | "deref" | "addr" | "none"
    obj: str = ""  # canonical object name

    REF = "ref"
    DEREF = "deref"
    ADDR = "addr"
    NONE = "none"


_NONE_VALUE = Value(Value.NONE)


@dataclass(frozen=True, slots=True)
class Contribution:
    """One value flowing out of an expression, with how it got there."""

    value: Value
    strength: Strength = Strength.DIRECT
    op: str = ""  # outermost operation on the path, "" for a plain copy

    def through(self, op: str, strength: Strength) -> "Contribution":
        """This contribution, additionally filtered through an operation."""
        return Contribution(
            value=self.value,
            strength=combine(strength, self.strength),
            op=op if op else self.op,
        )


@dataclass
class UnitIR:
    """The lowered form of one translation unit — a CLA database in memory."""

    filename: str
    objects: dict[str, ProgramObject] = dataclass_field(default_factory=dict)
    assignments: list[PrimitiveAssignment] = dataclass_field(default_factory=list)
    function_records: dict[str, FunctionRecord] = dataclass_field(default_factory=dict)
    indirect_calls: dict[str, IndirectCallRecord] = dataclass_field(default_factory=dict)
    call_sites: list[CallSiteRecord] = dataclass_field(default_factory=list)
    source_lines: int = 0
    #: Every ``#include`` its preprocessing resolved: (name, angled,
    #: including file) -> (file read, sha256 of its text).  Not part of
    #: the object format: a workspace keeps it beside the object file.
    includes: dict[tuple[str, bool, str], tuple[str, str]] = dataclass_field(
        default_factory=dict, compare=False, repr=False)
    #: The struct model the rows were lowered under (one of the
    #: ``Lowerer`` model names); object files record it and the link
    #: refuses to mix models.
    struct_model: str = "field_based"

    def variables(self) -> list[ProgramObject]:
        """Named program objects (Table 2's "program variables" count):
        everything except compiler temporaries."""
        return [o for o in self.objects.values() if o.kind != ObjectKind.TEMP]


class _Scope:
    __slots__ = ("bindings",)

    def __init__(self):
        self.bindings: dict[str, tuple[str, CType]] = {}


class Lowerer:
    """Lowers one translation unit.  Not reusable across units."""

    #: Struct models (paper §3 plus the conclusion's future-work item).
    FIELD_BASED = "field_based"
    FIELD_INDEPENDENT = "field_independent"
    OFFSET_BASED = "offset_based"

    #: Heap models (§6 setup (a) and its alternatives).
    HEAP_PER_SITE = "site"
    HEAP_PER_FUNCTION = "function"
    HEAP_SINGLE = "single"

    def __init__(
        self,
        filename: str,
        field_based: bool = True,
        track_strings: bool = False,
        struct_model: str | None = None,
        heap_model: str = "site",
    ):
        if heap_model not in (self.HEAP_PER_SITE, self.HEAP_PER_FUNCTION,
                              self.HEAP_SINGLE):
            raise ValueError(f"unknown heap model {heap_model!r}")
        self.heap_model = heap_model
        self.filename = filename
        if struct_model is None:
            struct_model = (
                self.FIELD_BASED if field_based else self.FIELD_INDEPENDENT
            )
        if struct_model not in (self.FIELD_BASED, self.FIELD_INDEPENDENT,
                                self.OFFSET_BASED):
            raise ValueError(f"unknown struct model {struct_model!r}")
        self.struct_model = struct_model
        # The offset model treats direct accesses per instance and degrades
        # to type-level fields when the instance escapes; everything else
        # follows the field-based paths.
        self.field_based = struct_model != self.FIELD_INDEPENDENT
        self.track_strings = track_strings
        self.ir = UnitIR(filename=filename, struct_model=struct_model)
        self._scopes: list[_Scope] = [_Scope()]
        self._current_function: str | None = None  # canonical name
        self._current_function_record: FunctionRecord | None = None
        self._temp_counter = 0
        #: offset model bookkeeping: instance-field object -> the
        #: type-level field object it degrades to, plus its base object.
        self._instance_fields: dict[str, tuple[str, str]] = {}

    # ------------------------------------------------------------------
    # Object bookkeeping
    # ------------------------------------------------------------------

    def _intern(
        self,
        name: str,
        kind: ObjectKind,
        ctype: CType | None,
        location: Location,
        is_global: bool,
    ) -> ProgramObject:
        existing = self.ir.objects.get(name)
        if existing is not None:
            # Refine placeholder info: a tentative extern gets its real
            # location/type once the defining declaration is seen.
            if existing.location.is_unknown and not location.is_unknown:
                existing.location = location
            if not existing.type_str and ctype is not None:
                existing.type_str = str(ctype)
                existing.may_point = ctype.may_hold_pointer()
            return existing
        obj = ProgramObject(
            name=name,
            kind=kind,
            type_str=str(ctype) if ctype is not None else "",
            location=location,
            enclosing_function=self._current_function or "",
            is_global=is_global,
            may_point=ctype.may_hold_pointer() if ctype is not None else True,
        )
        self.ir.objects[name] = obj
        return obj

    def _fresh_temp(self, ctype: CType | None, location: Location) -> str:
        self._temp_counter += 1
        name = O.temp_name(self.filename, self._current_simple_function(),
                           self._temp_counter)
        self._intern(name, ObjectKind.TEMP, ctype, location, is_global=False)
        return name

    def _current_simple_function(self) -> str | None:
        if self._current_function_record is None:
            return None
        return self._current_function_record.function

    # ------------------------------------------------------------------
    # Name resolution
    # ------------------------------------------------------------------

    def _bind(self, simple_name: str, canonical: str, ctype: CType) -> None:
        self._scopes[-1].bindings[simple_name] = (canonical, ctype)

    def _resolve(self, simple_name: str, location: Location) -> tuple[str, CType]:
        for scope in reversed(self._scopes):
            hit = scope.bindings.get(simple_name)
            if hit is not None:
                return hit
        # Implicitly declared identifier (pre-C99 C allows calling
        # undeclared functions; legacy code does this).  Treat as a global
        # of unknown type.
        ctype: CType = UnknownType()
        self._intern(simple_name, ObjectKind.VARIABLE, ctype, location,
                     is_global=True)
        self._scopes[0].bindings[simple_name] = (simple_name, ctype)
        return simple_name, ctype

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------

    def _emit(
        self,
        kind: PrimitiveKind,
        dst: str,
        src: str,
        location: Location,
        strength: Strength = Strength.DIRECT,
        op: str = "",
    ) -> None:
        if kind is PrimitiveKind.COPY and dst == src:
            return  # self-copy carries no information
        self.ir.assignments.append(
            PrimitiveAssignment(
                kind=kind, dst=dst, src=src, strength=strength, op=op,
                location=location,
            )
        )

    def _assign(
        self,
        lhs: Value,
        contributions: list[Contribution],
        location: Location,
    ) -> None:
        """Emit primitives for ``lhs = contributions``."""
        if lhs.shape == Value.NONE:
            return
        for c in contributions:
            if c.strength is Strength.NONE:
                continue  # no value-shape flow at all (e.g. x = !y)
            v = c.value
            if v.shape == Value.NONE:
                continue
            if lhs.shape == Value.REF:
                if v.shape == Value.REF:
                    self._emit(PrimitiveKind.COPY, lhs.obj, v.obj, location,
                               c.strength, c.op)
                elif v.shape == Value.ADDR:
                    self._emit(PrimitiveKind.ADDR, lhs.obj, v.obj, location,
                               c.strength, c.op)
                else:  # deref
                    self._emit(PrimitiveKind.LOAD, lhs.obj, v.obj, location,
                               c.strength, c.op)
            elif lhs.shape == Value.DEREF:
                if v.shape == Value.REF:
                    self._emit(PrimitiveKind.STORE, lhs.obj, v.obj, location,
                               c.strength, c.op)
                elif v.shape == Value.DEREF:
                    self._emit(PrimitiveKind.STORE_LOAD, lhs.obj, v.obj,
                               location, c.strength, c.op)
                else:  # *x = &y needs a temporary
                    t = self._fresh_temp(PointerType(UnknownType()), location)
                    self._emit(PrimitiveKind.ADDR, t, v.obj, location)
                    self._emit(PrimitiveKind.STORE, lhs.obj, t, location,
                               c.strength, c.op)
            # lhs.shape == ADDR cannot happen: &e is not an lvalue.

    def _materialize(
        self, contributions: list[Contribution], ctype: CType,
        location: Location,
    ) -> str:
        """Funnel contributions into a fresh temporary; return its name."""
        t = self._fresh_temp(ctype, location)
        self._assign(Value(Value.REF, t), contributions, location)
        return t

    # ------------------------------------------------------------------
    # Translation unit
    # ------------------------------------------------------------------

    def lower_unit(self, unit: A.TranslationUnit, source_text: str = "") -> UnitIR:
        if source_text:
            self.ir.source_lines = count_source_lines(source_text)
        for item in unit.items:
            if isinstance(item, A.FunctionDef):
                self._lower_function(item)
            elif isinstance(item, A.Decl):
                self._lower_file_scope_decl(item)
        if self.struct_model == self.OFFSET_BASED:
            self._fold_escaped_instance_fields()
        return self.ir

    def _fold_escaped_instance_fields(self) -> None:
        """Offset-model soundness post-pass.

        A per-instance field ``s.f`` is only valid while nothing can reach
        ``s`` through a pointer.  Once ``&s`` appears anywhere (including
        implicitly, via array decay), indirect accesses ``p->f`` — which
        use the type-level object ``S.f`` — could alias it, so every
        instance field based on ``s`` is folded back into its type-level
        field.  Escaping is transitive: folding ``o.in`` (a struct-typed
        field of an escaped ``o``) escapes its own sub-fields too.
        """
        escaped = {
            a.src for a in self.ir.assignments
            if a.kind is PrimitiveKind.ADDR
        }
        folded: dict[str, str] = {}
        changed = True
        while changed:
            changed = False
            for inst, (type_field, base) in self._instance_fields.items():
                if inst in folded:
                    continue
                if base in escaped or base in folded:
                    folded[inst] = type_field
                    escaped.add(inst)  # sub-fields of inst escape too
                    changed = True
        if not folded:
            return
        for a in self.ir.assignments:
            if a.dst in folded:
                a.dst = folded[a.dst]
            if a.src in folded:
                a.src = folded[a.src]
        for inst in folded:
            self.ir.objects.pop(inst, None)

    def _lower_file_scope_decl(self, decl: A.Decl) -> None:
        if decl.is_typedef:
            return
        canonical, ctype = self._declare_variable(decl, file_scope=True)
        if decl.init is not None:
            self._lower_initializer(canonical, ctype, decl.init, decl.location)

    def _declare_variable(
        self, decl: A.Decl, file_scope: bool
    ) -> tuple[str, CType]:
        ctype = decl.type
        is_function = isinstance(ctype, FunctionType)
        is_static = decl.storage == "static"
        is_extern = decl.storage == "extern"
        if is_function:
            canonical = (
                O.variable_name(decl.name, self.filename, None, is_static)
                if is_static
                else decl.name
            )
            self._intern(canonical, ObjectKind.FUNCTION, ctype, decl.location,
                         is_global=not is_static)
        elif file_scope or is_extern:
            canonical = O.variable_name(decl.name, self.filename, None, is_static)
            if is_extern:
                canonical = decl.name
            self._intern(canonical, ObjectKind.VARIABLE, ctype, decl.location,
                         is_global=not is_static)
        else:
            function = self._current_simple_function()
            if is_static:
                # Block-scope statics live at file granularity but stay
                # distinct per function.  Their object deliberately records
                # no enclosing function: the storage is shared across
                # invocations, so per-context transforms must never clone
                # them.
                canonical = O.variable_name(
                    f"{function}::{decl.name}" if function else decl.name,
                    self.filename, None, True,
                )
                obj = self._intern(canonical, ObjectKind.VARIABLE, ctype,
                                   decl.location, is_global=False)
                obj.enclosing_function = ""
                self._bind(decl.name, canonical, ctype)
                return canonical, ctype
            canonical = O.variable_name(decl.name, self.filename, function,
                                        False)
            self._intern(canonical, ObjectKind.VARIABLE, ctype, decl.location,
                         is_global=False)
        self._bind(decl.name, canonical, ctype)
        return canonical, ctype

    # ------------------------------------------------------------------
    # Functions
    # ------------------------------------------------------------------

    def _lower_function(self, fdef: A.FunctionDef) -> None:
        is_static = fdef.storage == "static"
        canonical = (
            O.variable_name(fdef.name, self.filename, None, True)
            if is_static
            else fdef.name
        )
        ftype = fdef.type
        self._intern(canonical, ObjectKind.FUNCTION, ftype, fdef.location,
                     is_global=not is_static)
        self._bind(fdef.name, canonical, ftype)

        ret_type = (
            ftype.return_type if isinstance(ftype, FunctionType) else IntType()
        )
        variadic = isinstance(ftype, FunctionType) and ftype.variadic
        arg_names = [
            O.argument_name(canonical, i + 1) for i in range(len(fdef.params))
        ]
        ret_name = O.return_name(canonical)
        record = FunctionRecord(
            function=canonical,
            args=arg_names,
            ret=ret_name,
            variadic=variadic,
            location=fdef.location,
        )
        self.ir.function_records[canonical] = record

        previous_fn = self._current_function
        previous_record = self._current_function_record
        previous_ret_type = getattr(self, "_current_ret_type", None)
        self._current_function = canonical
        self._current_function_record = record
        self._current_ret_type = ret_type
        self._scopes.append(_Scope())
        try:
            for i, param in enumerate(fdef.params):
                arg_obj = self._intern(
                    arg_names[i], ObjectKind.ARGUMENT, param.type,
                    fdef.location, is_global=not is_static,
                )
                arg_obj.enclosing_function = canonical
                if not param.name:
                    continue
                local = O.variable_name(param.name, self.filename,
                                        canonical, False)
                self._intern(local, ObjectKind.VARIABLE, param.type,
                             param.location, is_global=False)
                self._bind(param.name, local, param.type)
                # Paper: "x = f1, y = f2" for int f(x, y).
                self._emit(PrimitiveKind.COPY, local, arg_names[i],
                           fdef.location)
            ret_obj = self._intern(ret_name, ObjectKind.RETURN, ret_type,
                                   fdef.location, is_global=not is_static)
            ret_obj.enclosing_function = canonical
            self._lower_statement(fdef.body)
        finally:
            self._scopes.pop()
            self._current_function = previous_fn
            self._current_function_record = previous_record
            self._current_ret_type = previous_ret_type

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _lower_statement(self, stmt: A.Stmt | A.Decl) -> None:
        match stmt:
            case A.Compound(items=items):
                self._scopes.append(_Scope())
                try:
                    for item in items:
                        self._lower_statement(item)
                finally:
                    self._scopes.pop()
            case A.Decl() as decl:
                if decl.is_typedef:
                    return
                canonical, ctype = self._declare_variable(decl, file_scope=False)
                if decl.init is not None:
                    self._lower_initializer(canonical, ctype, decl.init,
                                            decl.location)
            case A.ExprStmt(expr=expr):
                if expr is not None:
                    self._eval(expr)
            case A.If(cond=cond, then=then, otherwise=otherwise):
                self._eval(cond)
                self._lower_statement(then)
                if otherwise is not None:
                    self._lower_statement(otherwise)
            case A.While(cond=cond, body=body) | A.DoWhile(cond=cond, body=body):
                self._eval(cond)
                self._lower_statement(body)
            case A.For(init=init, cond=cond, step=step, body=body):
                self._scopes.append(_Scope())
                try:
                    if isinstance(init, list):
                        for d in init:
                            self._lower_statement(d)
                    elif init is not None:
                        self._eval(init)
                    if cond is not None:
                        self._eval(cond)
                    if step is not None:
                        self._eval(step)
                    self._lower_statement(body)
                finally:
                    self._scopes.pop()
            case A.Return(value=value, location=loc):
                if value is not None and self._current_function_record is not None:
                    contributions, value_type = self._eval(value)
                    ret = self._current_function_record.ret
                    ret_type = getattr(self, "_current_ret_type", None)
                    if ret_type is not None:
                        # Struct-by-value returns move every field (same
                        # treatment as an explicit aggregate assignment).
                        self._maybe_aggregate_copy(
                            Value(Value.REF, ret), ret_type, contributions,
                            value_type, loc,
                        )
                    self._assign(Value(Value.REF, ret), contributions, loc)
                elif value is not None:
                    self._eval(value)
            case A.Switch(cond=cond, body=body):
                self._eval(cond)
                self._lower_statement(body)
            case A.Case(stmt=inner) | A.Default(stmt=inner) | A.Label(stmt=inner):
                self._lower_statement(inner)
            case A.Break() | A.Continue() | A.Goto():
                pass
            case _:
                pass

    # ------------------------------------------------------------------
    # Initializers
    # ------------------------------------------------------------------

    def _lower_initializer(
        self, canonical: str, ctype: CType, init: A.Expr, location: Location
    ) -> None:
        if isinstance(init, A.InitList):
            self._lower_init_list(Value(Value.REF, canonical), ctype, init)
            return
        contributions, _ = self._eval(init)
        self._assign(Value(Value.REF, canonical), contributions, location)

    def _lower_init_list(
        self, target: Value, ctype: CType, init: A.InitList
    ) -> None:
        base = ctype.strip() if isinstance(ctype, ArrayType) else ctype
        if isinstance(ctype, ArrayType):
            # Index-independent arrays: all elements hit the array object.
            for item in init.items:
                if isinstance(item, A.InitList):
                    self._lower_init_list(target, base, item)
                else:
                    contributions, _ = self._eval(item)
                    self._assign(target, contributions, item.location)
            return
        if isinstance(base, (StructType, UnionType)) and base.fields:
            fields = [f for f in base.fields if f.name or
                      isinstance(f.type, (StructType, UnionType))]
            for i, item in enumerate(init.items):
                if i < len(fields):
                    f = fields[i]
                    if (
                        self.struct_model == self.OFFSET_BASED
                        and target.shape == Value.REF
                        and f.name
                    ):
                        inst = self._offset_instance_field(
                            target.obj, base, f.name, item.location
                        )
                        ftarget = Value(Value.REF, inst)
                    elif self.field_based:
                        fobj = self._field_object(base, f.name, item.location)
                        ftarget = Value(Value.REF, fobj)
                    else:
                        ftarget = target
                    if isinstance(item, A.InitList):
                        self._lower_init_list(ftarget, f.type, item)
                    else:
                        contributions, _ = self._eval(item)
                        self._assign(ftarget, contributions, item.location)
                else:
                    self._eval(item)
            return
        # Scalar initialised with braces: { expr }.
        for item in init.items:
            if isinstance(item, A.InitList):
                self._lower_init_list(target, base, item)
            else:
                contributions, _ = self._eval(item)
                self._assign(target, contributions, item.location)

    def _field_object(
        self, struct: StructType, fname: str, location: Location
    ) -> str:
        if isinstance(struct, UnionType):
            # All members of a union overlay the same storage: giving them
            # distinct objects would lose flows through type punning
            # (write u.a, read u.b).  One shared object per union type.
            name = O.field_name(struct.tag, "$union")
            self._intern(name, ObjectKind.FIELD, UnknownType(), location,
                         is_global=True)
            return name
        name = O.field_name(struct.tag, fname)
        f = struct.field_named(fname)
        ftype = f.type if f is not None else UnknownType()
        self._intern(name, ObjectKind.FIELD, ftype, location, is_global=True)
        return name

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def _eval(self, expr: A.Expr) -> tuple[list[Contribution], CType]:
        """Evaluate an expression: emit side-effect primitives, return the
        value contributions and the expression's static type."""
        match expr:
            case A.Identifier(name=name, location=loc):
                canonical, ctype = self._resolve(name, loc)
                obj = self.ir.objects.get(canonical)
                if obj is not None and obj.kind == ObjectKind.FUNCTION:
                    # Function designator decays to a pointer to the function.
                    return [Contribution(Value(Value.ADDR, canonical))], \
                        PointerType(ctype)
                if isinstance(ctype, ArrayType):
                    # Arrays decay too; index-independent model: the decayed
                    # pointer's target is the array object itself.
                    return [Contribution(Value(Value.ADDR, canonical))], \
                        PointerType(ctype.strip())
                return [Contribution(Value(Value.REF, canonical))], ctype

            case A.IntLiteral() | A.FloatLiteral() | A.CharLiteral():
                return [], IntType()

            case A.StringLiteral(location=loc):
                if self.track_strings:
                    name = O.string_name(loc)
                    self._intern(name, ObjectKind.STRING,
                                 PointerType(IntType("char")), loc,
                                 is_global=True)
                    return [Contribution(Value(Value.ADDR, name))], \
                        PointerType(IntType("char"))
                return [], PointerType(IntType("char"))

            case A.Assignment() as assign:
                return self._eval_assignment(assign)

            case A.Unary() as unary:
                return self._eval_unary(unary)

            case A.Postfix(operand=operand):
                # x++ / x--: value is (conceptually the old) x; the update
                # itself is a self-assignment that carries no new flow.
                return self._eval(operand)

            case A.Binary() as binary:
                return self._eval_binary(binary)

            case A.Conditional(cond=cond, then=then, otherwise=otherwise):
                self._eval(cond)
                then_c, then_t = self._eval(then)
                else_c, else_t = self._eval(otherwise)
                ctype = then_t if not isinstance(then_t, UnknownType) else else_t
                return then_c + else_c, ctype

            case A.Call() as call:
                return self._eval_call(call)

            case A.Member() as member:
                return self._eval_member(member)

            case A.Index() as index:
                return self._eval_index(index)

            case A.Cast(to_type=to_type, operand=operand):
                contributions, _ = self._eval(operand)
                return contributions, to_type

            case A.SizeofType():
                return [], IntType()

            case A.Comma(parts=parts):
                result: tuple[list[Contribution], CType] = ([], IntType())
                for part in parts:
                    result = self._eval(part)
                return result

            case A.InitList() as init:
                # Bare initializer list in expression position; treat like a
                # compound literal of unknown type.
                t = self._fresh_temp(UnknownType(), init.location)
                self._lower_init_list(Value(Value.REF, t), UnknownType(), init)
                return [Contribution(Value(Value.REF, t))], UnknownType()

            case A.CompoundLiteral(of_type=of_type, init=init, location=loc):
                t = self._fresh_temp(of_type, loc)
                self._lower_init_list(Value(Value.REF, t), of_type, init)
                return [Contribution(Value(Value.REF, t))], of_type

            case _:
                return [], UnknownType()

    def _eval_assignment(
        self, assign: A.Assignment
    ) -> tuple[list[Contribution], CType]:
        rhs_contributions, rhs_type = self._eval(assign.rhs)
        lhs_value, lhs_type = self._eval_lvalue(assign.lhs)
        if assign.op == "=":
            self._maybe_aggregate_copy(lhs_value, lhs_type, rhs_contributions,
                                       rhs_type, assign.location)
            self._assign(lhs_value, rhs_contributions, assign.location)
        else:
            # Compound assignment x op= y behaves like x = x op y: the
            # existing value of x contributes only a self-edge (dropped), so
            # only the RHS flows, through op.
            op = assign.op[:-1]
            _, s2 = binary_strengths(op)
            self._assign(
                lhs_value,
                [c.through(op, s2) for c in rhs_contributions],
                assign.location,
            )
        # The value of the assignment expression is the (new) LHS value.
        if lhs_value.shape == Value.REF:
            return [Contribution(Value(Value.REF, lhs_value.obj))], lhs_type
        if lhs_value.shape == Value.DEREF:
            return [Contribution(Value(Value.DEREF, lhs_value.obj))], lhs_type
        return rhs_contributions, lhs_type

    def _maybe_aggregate_copy(
        self,
        lhs_value: Value,
        lhs_type: CType,
        rhs_contributions: list[Contribution],
        rhs_type: CType,
        location: Location,
    ) -> None:
        """Struct assignment in the field-based model.

        ``s1 = s2`` copies every field, but field-based analysis shares one
        object per field of the struct *type*, so the per-field copies are
        self-edges when both sides have the same struct type — nothing to
        emit.  When the types differ (cast tricks), copy matching field
        names pairwise.
        """
        if not self.field_based:
            return
        lt, rt = lhs_type.strip(), rhs_type.strip()
        if not (isinstance(lt, StructType) and isinstance(rt, StructType)):
            return
        if self.struct_model == self.OFFSET_BASED and lt.tag == rt.tag:
            self._offset_struct_transfer(lhs_value, lt, rhs_contributions,
                                         location)
            return
        if lt is rt or lt.tag == rt.tag:
            return
        for f in lt.fields or ():
            if not f.name:
                continue
            other = rt.field_named(f.name)
            if other is None:
                continue
            dst = self._field_object(lt, f.name, location)
            src = self._field_object(rt, f.name, location)
            self._emit(PrimitiveKind.COPY, dst, src, location)

    def _offset_instance_field(
        self, base: str, struct: StructType, fname: str, location: Location
    ) -> str:
        """Register and return the per-instance field ``base.fname``.

        Falls back to the type-level field when the base is not a
        per-instance object (e.g. a type-level field reached through a
        pointer): private sub-fields of shared objects would be unsound.
        """
        type_field = self._field_object(struct, fname, location)
        base_obj = self.ir.objects.get(base)
        base_is_instance = base_obj is not None and (
            base_obj.kind in (ObjectKind.VARIABLE, ObjectKind.ARGUMENT,
                              ObjectKind.RETURN)
            or (base_obj.kind == ObjectKind.FIELD
                and base in self._instance_fields)
        )
        if not base_is_instance:
            return type_field
        inst = f"{base}.{fname}"
        f = struct.field_named(fname)
        obj = self._intern(inst, ObjectKind.FIELD,
                           f.type if f is not None else UnknownType(),
                           location,
                           is_global=base_obj.is_global
                           if base_obj is not None else True)
        if base_obj is not None:
            obj.enclosing_function = base_obj.enclosing_function
        self._instance_fields[inst] = (type_field, base)
        return inst

    def _offset_struct_transfer(
        self,
        lhs_value: Value,
        struct: StructType,
        rhs_contributions: list[Contribution],
        location: Location,
    ) -> None:
        """Whole-struct assignment in the offset model.

        Per-instance fields are distinct objects, so ``s = t`` must copy
        field by field.  A struct moving *through a pointer* transfers via
        the type-level fields instead: the pointee's instances are unknown
        here, but any instance a pointer can reach has already been folded
        into the type-level field by the escape post-pass.
        """

        def field_values(value: Value) -> dict[str, Value]:
            out: dict[str, Value] = {}
            for f in struct.fields or ():
                if not f.name:
                    continue
                type_field = self._field_object(struct, f.name, location)
                if value.shape == Value.REF:
                    inst = self._offset_instance_field(
                        value.obj, struct, f.name, location
                    )
                    out[f.name] = Value(Value.REF, inst)
                else:  # through a pointer: type-level field
                    out[f.name] = Value(Value.REF, type_field)
            return out

        lhs_fields = field_values(lhs_value)
        for c in rhs_contributions:
            if c.strength is Strength.NONE or c.value.shape == Value.NONE:
                continue
            rhs_fields = field_values(c.value)
            for fname, lhs_field in lhs_fields.items():
                rhs_field = rhs_fields.get(fname)
                if rhs_field is None:
                    continue
                self._assign(
                    lhs_field,
                    [Contribution(rhs_field, c.strength, c.op)],
                    location,
                )

    def _eval_unary(self, unary: A.Unary) -> tuple[list[Contribution], CType]:
        op = unary.op
        loc = unary.location
        if op == "*":
            contributions, ctype = self._eval(unary.operand)
            target = _pointee(ctype)
            if isinstance(target, FunctionType) or isinstance(
                ctype.strip(), FunctionType
            ):
                # Dereferencing a function pointer yields a function
                # designator that immediately decays back to the pointer:
                # (*fp)(...) is fp(...).
                return contributions, target or ctype.strip()
            value = self._normalize_deref(contributions, ctype, loc)
            return [Contribution(value)], target
        if op == "&":
            value, ctype = self._eval_lvalue(unary.operand)
            if value.shape == Value.REF:
                return [Contribution(Value(Value.ADDR, value.obj))], \
                    PointerType(ctype)
            if value.shape == Value.DEREF:
                # &*p == p
                return [Contribution(Value(Value.REF, value.obj))], \
                    PointerType(ctype)
            return [], PointerType(ctype)
        if op in ("++", "--"):
            contributions, ctype = self._eval(unary.operand)
            return contributions, ctype
        if op == "sizeof":
            self._eval(unary.operand)
            return [], IntType()
        contributions, ctype = self._eval(unary.operand)
        strength = unary_strength(op)
        return [c.through(op, strength) for c in contributions], ctype

    def _normalize_deref(
        self, contributions: list[Contribution], ctype: CType, loc: Location
    ) -> Value:
        """Produce the value ``*contributions`` with at most one deref."""
        if len(contributions) == 1 and contributions[0].strength is Strength.DIRECT:
            v = contributions[0].value
            if v.shape == Value.ADDR:
                return Value(Value.REF, v.obj)  # *&x == x
            if v.shape == Value.REF:
                return Value(Value.DEREF, v.obj)
            if v.shape == Value.DEREF:
                # **p: load *p into a temporary first.
                t = self._fresh_temp(ctype, loc)
                self._emit(PrimitiveKind.LOAD, t, v.obj, loc)
                return Value(Value.DEREF, t)
            return _NONE_VALUE
        if not contributions:
            return _NONE_VALUE
        t = self._materialize(contributions, ctype, loc)
        return Value(Value.DEREF, t)

    def _eval_binary(self, binary: A.Binary) -> tuple[list[Contribution], CType]:
        left_c, left_t = self._eval(binary.left)
        right_c, right_t = self._eval(binary.right)
        s1, s2 = binary_strengths(binary.op)
        out = [c.through(binary.op, s1) for c in left_c]
        out += [c.through(binary.op, s2) for c in right_c]
        # Pointer arithmetic keeps the pointer type.
        if isinstance(left_t.strip(), PointerType):
            ctype: CType = left_t
        elif isinstance(right_t.strip(), PointerType):
            ctype = right_t
        else:
            ctype = IntType()
        return out, ctype

    def _eval_member(self, member: A.Member) -> tuple[list[Contribution], CType]:
        value, ctype = self._member_lvalue(member)
        if value.shape == Value.NONE:
            return [], ctype
        if isinstance(ctype, ArrayType):
            # Array-typed member decays (index-independent: to the member
            # object itself).
            if value.shape == Value.REF:
                return [Contribution(Value(Value.ADDR, value.obj))], \
                    PointerType(ctype.strip())
            return [Contribution(value)], PointerType(ctype.strip())
        return [Contribution(value)], ctype

    def _member_lvalue(self, member: A.Member) -> tuple[Value, CType]:
        base_c, base_t = self._eval(member.base)
        struct_t = base_t.strip()
        if member.arrow:
            struct_t = _pointee(base_t) or UnknownType()
            struct_t = struct_t.strip()
        ftype: CType = UnknownType()
        if isinstance(struct_t, StructType):
            f = struct_t.field_named(member.field_name)
            if f is not None:
                ftype = f.type
        if self.field_based:
            # Offset model: a direct access on a known base object gets a
            # private per-instance field (the conclusion's "offset f from
            # some base object x").  If the base's address ever escapes,
            # the post-pass folds these back into the type-level field.
            if (
                self.struct_model == self.OFFSET_BASED
                and not member.arrow
                and isinstance(struct_t, StructType)
                and len(base_c) == 1
                and base_c[0].value.shape == Value.REF
                and base_c[0].strength is Strength.DIRECT
            ):
                base_name = base_c[0].value.obj
                base_obj = self.ir.objects.get(base_name)
                base_is_instance = (
                    base_obj is not None
                    and (
                        base_obj.kind in (ObjectKind.VARIABLE,
                                          ObjectKind.ARGUMENT,
                                          ObjectKind.RETURN)
                        # Chained instance fields (o.in.v) are fine, but a
                        # *type-level* field base (Out.in, reached through
                        # a pointer) is shared across instances and must
                        # not spawn private sub-fields.
                        or (base_obj.kind == ObjectKind.FIELD
                            and base_name in self._instance_fields)
                    )
                )
                if base_is_instance:
                    type_field = self._field_object(
                        struct_t, member.field_name, member.location
                    )
                    inst = f"{base_name}.{member.field_name}"
                    obj = self._intern(inst, ObjectKind.FIELD, ftype,
                                       member.location,
                                       is_global=base_obj.is_global)
                    obj.enclosing_function = base_obj.enclosing_function
                    self._instance_fields[inst] = (type_field, base_name)
                    return Value(Value.REF, inst), ftype
            tag = struct_t.tag if isinstance(struct_t, StructType) else "?"
            if isinstance(struct_t, StructType):
                name = self._field_object(struct_t, member.field_name,
                                          member.location)
            else:
                name = O.field_name(tag, member.field_name)
                self._intern(name, ObjectKind.FIELD, ftype, member.location,
                             is_global=True)
            return Value(Value.REF, name), ftype
        # Field-independent: x.f is x; p->f is *p.
        if not member.arrow:
            value = self._lvalue_of_contributions(base_c, base_t,
                                                  member.location)
            return value, ftype
        value = self._normalize_deref(base_c, base_t, member.location)
        return value, ftype

    def _eval_index(self, index: A.Index) -> tuple[list[Contribution], CType]:
        value, ctype = self._index_lvalue(index)
        if isinstance(ctype, ArrayType):
            # a[i] where element is still an array: decays again.
            if value.shape == Value.REF:
                return [Contribution(Value(Value.ADDR, value.obj))], \
                    PointerType(ctype.strip())
            return [Contribution(value)], PointerType(ctype.strip())
        return ([Contribution(value)] if value.shape != Value.NONE else []), ctype

    def _index_lvalue(self, index: A.Index) -> tuple[Value, CType]:
        base_c, base_t = self._eval(index.base)
        self._eval(index.index)  # effects only; index value is ignored (§6)
        element = _pointee(base_t)
        if element is None:
            element = UnknownType()
        value = self._normalize_deref(base_c, base_t, index.location)
        return value, element

    # ------------------------------------------------------------------
    # Lvalues
    # ------------------------------------------------------------------

    def _eval_lvalue(self, expr: A.Expr) -> tuple[Value, CType]:
        """Evaluate an expression in lvalue position: REF or DEREF."""
        match expr:
            case A.Identifier(name=name, location=loc):
                canonical, ctype = self._resolve(name, loc)
                return Value(Value.REF, canonical), ctype
            case A.Unary(op="*", operand=operand, location=loc):
                contributions, ctype = self._eval(operand)
                target = _pointee(ctype) or UnknownType()
                return self._normalize_deref(contributions, ctype, loc), target
            case A.Member() as member:
                return self._member_lvalue(member)
            case A.Index() as index:
                return self._index_lvalue(index)
            case A.Cast(operand=operand, to_type=to_type):
                value, _ = self._eval_lvalue(operand)
                return value, to_type
            case A.Comma(parts=parts):
                for part in parts[:-1]:
                    self._eval(part)
                return self._eval_lvalue(parts[-1])
            case A.Conditional() | A.Assignment() | A.CompoundLiteral():
                contributions, ctype = self._eval(expr)
                return self._lvalue_of_contributions(
                    contributions, ctype, expr.location
                ), ctype
            case _:
                # Not an lvalue (constant, call result, ...): evaluate for
                # effects; assignments into it go nowhere.
                _, ctype = self._eval(expr)
                return _NONE_VALUE, ctype

    def _lvalue_of_contributions(
        self, contributions: list[Contribution], ctype: CType, loc: Location
    ) -> Value:
        if len(contributions) == 1 and contributions[0].strength is Strength.DIRECT:
            v = contributions[0].value
            if v.shape in (Value.REF, Value.DEREF):
                return v
        if not contributions:
            return _NONE_VALUE
        t = self._materialize(contributions, ctype, loc)
        return Value(Value.REF, t)

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------

    def _eval_call(self, call: A.Call) -> tuple[list[Contribution], CType]:
        func_c, func_t = self._eval(call.func)
        loc = call.location

        # Direct call to a known function object?
        direct: str | None = None
        if len(func_c) == 1 and func_c[0].value.shape == Value.ADDR:
            candidate = func_c[0].value.obj
            obj = self.ir.objects.get(candidate)
            if obj is not None and obj.kind == ObjectKind.FUNCTION:
                direct = candidate
        elif len(func_c) == 1 and func_c[0].value.shape == Value.REF:
            # Calling an undeclared identifier: C's implicit function
            # declaration.  Promote the placeholder object to a function
            # and treat the call as direct.
            candidate = func_c[0].value.obj
            obj = self.ir.objects.get(candidate)
            if (
                obj is not None
                and obj.kind == ObjectKind.VARIABLE
                and isinstance(func_t, UnknownType)
            ):
                obj.kind = ObjectKind.FUNCTION
                direct = candidate

        if direct is not None:
            self.ir.call_sites.append(CallSiteRecord(
                caller=self._caller_name(), target=direct, indirect=False,
                location=loc,
            ))
        # Allocation primitives: fresh heap location per call site (§6).
        if direct is not None:
            simple = direct.rsplit("::", 1)[-1]
            if simple in ALLOCATORS:
                return self._eval_allocation(simple, call, loc)
            if simple in RETURNS_FIRST_ARG and call.args:
                # The return value IS the first argument's pointer value.
                first_c, first_t = self._eval(call.args[0])
                for arg in call.args[1:]:
                    self._eval(arg)
                return first_c, first_t

        arg_contribs: list[tuple[list[Contribution], CType]] = []
        for arg in call.args:
            arg_contribs.append(self._eval(arg))

        ret_type = _return_type(func_t)
        callee_params = ()
        ft = func_t.strip()
        if isinstance(ft, PointerType):
            ft = ft.target
        if isinstance(ft, FunctionType):
            callee_params = ft.params
        if direct is not None:
            for i, (contribs, arg_type) in enumerate(arg_contribs):
                arg_name = O.argument_name(direct, i + 1)
                self._intern(arg_name, ObjectKind.ARGUMENT, None, loc,
                             is_global=self._object_is_global(direct))
                if i < len(callee_params):
                    # Struct-by-value parameters move every field.
                    self._maybe_aggregate_copy(
                        Value(Value.REF, arg_name), callee_params[i].type,
                        contribs, arg_type, loc,
                    )
                self._assign(Value(Value.REF, arg_name), contribs, loc)
            ret_name = O.return_name(direct)
            self._intern(ret_name, ObjectKind.RETURN, ret_type, loc,
                         is_global=self._object_is_global(direct))
            return [Contribution(Value(Value.REF, ret_name))], ret_type

        # Indirect call: normalise the callee expression to one pointer
        # object and route through its standardized variables.
        pointer = self._callee_pointer(func_c, func_t, loc)
        if pointer is None:
            return [], ret_type
        pobj = self.ir.objects.get(pointer)
        if pobj is not None:
            pobj.is_funcptr = True
        self.ir.call_sites.append(CallSiteRecord(
            caller=self._caller_name(), target=pointer, indirect=True,
            location=loc,
        ))
        arg_names = [
            O.funcptr_argument_name(pointer, i + 1)
            for i in range(len(call.args))
        ]
        ret_name = O.funcptr_return_name(pointer)
        for i, (contribs, _t) in enumerate(arg_contribs):
            self._intern(arg_names[i], ObjectKind.ARGUMENT, None, loc,
                         is_global=self._object_is_global(pointer))
            self._assign(Value(Value.REF, arg_names[i]), contribs, loc)
        self._intern(ret_name, ObjectKind.RETURN, ret_type, loc,
                     is_global=self._object_is_global(pointer))
        record = self.ir.indirect_calls.get(pointer)
        if record is None:
            self.ir.indirect_calls[pointer] = IndirectCallRecord(
                pointer=pointer, args=arg_names, ret=ret_name, location=loc,
            )
        elif len(record.args) < len(arg_names):
            # Another call site through the same pointer with more actuals:
            # the record keeps the maximum arity seen.
            record.args = arg_names
        return [Contribution(Value(Value.REF, ret_name))], ret_type

    def _caller_name(self) -> str:
        if self._current_function is not None:
            return self._current_function
        return f"{self.filename}::<toplevel>"

    def _object_is_global(self, name: str) -> bool:
        obj = self.ir.objects.get(name)
        return obj.is_global if obj is not None else True

    def _callee_pointer(
        self, func_c: list[Contribution], func_t: CType, loc: Location
    ) -> str | None:
        """The pointer object an indirect call goes through.

        ``p(...)`` and ``(*p)(...)`` are the same call; a DEREF value here
        means the callee expression dereferenced a pointer *to a function
        pointer*, which needs one load into a temporary.
        """
        if len(func_c) == 1:
            v = func_c[0].value
            if v.shape == Value.REF:
                return v.obj
            if v.shape == Value.DEREF:
                t = self._fresh_temp(func_t, loc)
                self._emit(PrimitiveKind.LOAD, t, v.obj, loc)
                return t
            if v.shape == Value.ADDR:
                return None  # address of a non-function: nothing callable
        if not func_c:
            return None
        return self._materialize(func_c, func_t, loc)

    def _eval_allocation(
        self, allocator: str, call: A.Call, loc: Location
    ) -> tuple[list[Contribution], CType]:
        for arg in call.args:
            self._eval(arg)
        if self.heap_model == self.HEAP_SINGLE:
            heap = "heap$all"
        elif self.heap_model == self.HEAP_PER_FUNCTION:
            owner = self._current_function or f"{self.filename}::<toplevel>"
            heap = f"heap@{owner}"
        else:  # per allocation site (§6 setup (a), the default)
            heap = O.heap_name(allocator, loc)
        self._intern(heap, ObjectKind.HEAP, None, loc, is_global=True)
        contributions = [Contribution(Value(Value.ADDR, heap))]
        if allocator in ("realloc", "xrealloc", "g_realloc") and call.args:
            # realloc may return its argument's block: the old pointer
            # value flows to the result too.
            old_c, _ = self._eval(call.args[0])
            contributions.extend(old_c)
        return contributions, PointerType(UnknownType())


def _pointee(ctype: CType) -> CType | None:
    t = ctype.strip()
    if isinstance(t, PointerType):
        target = t.target
        # Index-independent arrays: pointer to an array element *is* a
        # pointer to the array object.
        return target
    if isinstance(t, FunctionType):
        return t  # *f on a function is the function itself
    return None


def _return_type(func_t: CType) -> CType:
    t = func_t.strip()
    if isinstance(t, PointerType):
        t = t.target
    if isinstance(t, FunctionType):
        return t.return_type
    return UnknownType()


def lower_translation_unit(
    unit: A.TranslationUnit,
    field_based: bool = True,
    track_strings: bool = False,
    source_text: str = "",
    struct_model: str | None = None,
    heap_model: str = "site",
) -> UnitIR:
    """Lower a parsed translation unit to its CLA database rows.

    ``struct_model`` selects between ``"field_based"`` (paper default),
    ``"field_independent"`` (§3's alternative) and ``"offset_based"`` (the
    conclusion's future-work model: per-instance fields for structs whose
    address never escapes); when omitted it is derived from the legacy
    ``field_based`` flag.
    """
    lowerer = Lowerer(unit.filename, field_based=field_based,
                      track_strings=track_strings,
                      struct_model=struct_model,
                      heap_model=heap_model)
    return lowerer.lower_unit(unit, source_text)
