"""Database-to-database transformers (paper §4).

"Finally, we note that we can write pre-analysis optimizers as database to
database transformers.  In fact, we have experimented with
context-sensitive analysis by writing a transformation that reads in
databases and simulates context-sensitivity by controlled duplication of
primitive assignments in the database — this requires no changes to code
in the compile, link or analyze components of our system."

This module provides exactly that plumbing:

* the input and output of every transform is one
  :class:`~repro.ir.lower.UnitIR` holding the whole database
  (:meth:`~repro.cla.store.MemoryStore.to_unit`), so transforms compose,
  and :func:`transform_file` runs them file to file;
* :class:`ContextSensitivity` — the paper's experiment: for functions with
  few call sites, duplicate the function's argument/return plumbing and
  body assignments once per call site (bounded cloning, the
  inlining-flavoured simulation of context sensitivity).  The analyze
  phase is completely unaware;
* :class:`OfflineVariableSubstitution` — the pre-analysis optimization of
  Rountev & Chandra (PLDI 2000), cited as [21]: variables that provably
  have identical points-to sets (here: pure single-source copy targets
  whose address is never taken) are substituted away, shrinking the
  constraint system before any solver sees it.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Protocol

from ..ir.lower import UnitIR
from ..ir.objects import ObjectKind, ProgramObject
from ..ir.primitives import PrimitiveAssignment, PrimitiveKind
from .linker import absorb_object_files
from .store import MemoryStore
from .writer import ObjectFileWriter


def address_taken(unit: UnitIR) -> set[str]:
    """Every object whose address is taken somewhere in ``unit``."""
    return {a.src for a in unit.assignments if a.kind is PrimitiveKind.ADDR}


def _ensure_object(unit: UnitIR, name: str,
                   like: ProgramObject | None) -> None:
    """Give ``name`` an object, copying ``like``'s metadata if given."""
    if name in unit.objects:
        return
    if like is None:
        unit.objects[name] = ProgramObject(name=name,
                                           kind=ObjectKind.VARIABLE)
    else:
        unit.objects[name] = replace(like, name=name)


def _output(image: UnitIR, objects: dict[str, ProgramObject],
            assignments: list[PrimitiveAssignment]) -> UnitIR:
    """A transform's output: ``objects`` and ``assignments`` plus copies
    of ``image``'s records, so changing the output never changes the
    input."""
    return replace(image, objects=objects, assignments=assignments,
                   function_records=dict(image.function_records),
                   indirect_calls=dict(image.indirect_calls),
                   call_sites=list(image.call_sites))


class DatabaseTransform(Protocol):
    """A pre-analysis optimizer: database in, database out."""

    name: str

    def apply(self, image: UnitIR) -> UnitIR: ...


def transform_file(
    in_path: str, out_path: str, transforms: list[DatabaseTransform]
) -> UnitIR:
    """Run transforms file-to-file, exactly as the paper describes."""
    store = absorb_object_files([in_path])
    unit = store.to_unit()
    for transform in transforms:
        unit = transform.apply(unit)
    out = MemoryStore(unit)
    ObjectFileWriter(out, linked=True).write(out_path)
    return unit


# ---------------------------------------------------------------------------
# Context sensitivity by controlled duplication (the paper's experiment)
# ---------------------------------------------------------------------------


class ContextSensitivity:
    """Simulate context-sensitive analysis by duplicating a function's
    primitive assignments per call site.

    For each function ``f`` that (a) has a function record, (b) is never
    address-taken (indirect calls must keep the shared plumbing), and
    (c) has between 2 and ``max_sites`` direct call sites, every call
    site ``k`` gets private copies ``f$argN@k`` / ``f$ret@k`` of the
    standardized variables and private copies of every body assignment
    (locals renamed ``l@k``).  Call sites are identified by the source
    location the lowering stamped on their argument/return assignments.

    The join-point effect of context insensitivity (§5) disappears for the
    cloned functions: ``a = id(&x); b = id(&y)`` yields ``pts(a) = {x}``
    and ``pts(b) = {y}`` instead of both getting both.
    """

    name = "context-sensitivity"

    def __init__(self, max_sites: int = 4):
        self.max_sites = max_sites
        self.cloned_functions = 0
        self.added_assignments = 0

    def apply(self, image: UnitIR) -> UnitIR:
        taken = address_taken(image)
        out = _output(image, dict(image.objects), [])

        interface: dict[str, str] = {}  # f$argN / f$ret -> function
        for fname, record in image.function_records.items():
            for arg in record.args:
                interface[arg] = fname
            interface[record.ret] = fname

        def local_owner(name: str) -> str | None:
            """The function whose *body locals* include this object.

            Interface variables (f$argN/f$ret) also carry an enclosing
            function but are classified through ``interface`` instead.
            """
            obj = image.objects.get(name)
            if (
                obj is not None
                and obj.enclosing_function
                and obj.kind in (ObjectKind.VARIABLE, ObjectKind.TEMP)
                and not obj.is_global
            ):
                return obj.enclosing_function
            return None

        # Classification: every assignment gets an optional body owner
        # (the function whose locals it touches) and an optional callee
        # (the function whose interface it feeds/reads at a call site).
        # The same assignment can be both — a call buried in a body.
        owners: list[str | None] = []
        callees: list[str | None] = []
        uncloneable: set[str] = set()
        site_keys: dict[str, set[tuple]] = {}

        for a in image.assignments:
            owner = local_owner(a.dst) or local_owner(a.src)
            f_dst = interface.get(a.dst)
            f_src = interface.get(a.src)
            callee: str | None = None
            if f_dst is not None and f_dst != owner:
                callee = f_dst
            elif f_src is not None and f_src != owner:
                callee = f_src
            if owner is None and f_dst is not None and f_src is not None \
                    and f_dst != f_src:
                # g(f(...))-style plumbing between two interfaces with no
                # local in between: too entangled, clone neither.
                uncloneable.add(f_dst)
                uncloneable.add(f_src)
                callee = None
            if owner is None and callee is None and f_dst is not None:
                owner = f_dst  # pure intra-interface (f$ret = f$arg1)
            owners.append(owner)
            callees.append(callee)
            if callee is not None:
                # Site key is (file, line): the argument and return
                # assignments of one call share the line but not the
                # column.  Two calls on one line merge into one context —
                # a sound approximation.
                site_keys.setdefault(callee, set()).add(
                    (a.location.filename, a.location.line)
                )

        cloneable: set[str] = set()
        for fname, sites in site_keys.items():
            record = image.function_records.get(fname)
            if record is None or fname in taken \
                    or fname in uncloneable:
                continue
            if 2 <= len(sites) <= self.max_sites:
                cloneable.add(fname)
        # An assignment that is simultaneously a body statement of a
        # cloneable caller and a call site of a cloneable callee would
        # need a clone per (caller-context, callee-context) pair; keep the
        # callee shared instead (one level of context, like the paper's
        # "controlled" duplication).
        for owner, callee in zip(owners, callees):
            if owner in cloneable and callee in cloneable:
                cloneable.discard(callee)

        caller_sites: dict[str, list[tuple]] = {
            fname: sorted(site_keys[fname]) for fname in cloneable
        }
        site_index: dict[str, dict[tuple, int]] = {
            fname: {key: k for k, key in enumerate(keys)}
            for fname, keys in caller_sites.items()
        }
        self.cloned_functions = len(cloneable)

        def rename(name: str, fname: str, k: int) -> str:
            if interface.get(name) == fname or local_owner(name) == fname:
                return f"{name}@{k}"
            return name

        def clone(a: PrimitiveAssignment, fname: str, k: int
                  ) -> PrimitiveAssignment:
            dst = rename(a.dst, fname, k)
            src = rename(a.src, fname, k)
            for name, original in ((dst, a.dst), (src, a.src)):
                if name != original:
                    _ensure_object(out, name, image.objects.get(original))
            return PrimitiveAssignment(
                kind=a.kind, dst=dst, src=src, strength=a.strength,
                op=a.op, location=a.location,
            )

        emitted = out.assignments
        for i, a in enumerate(image.assignments):
            owner, callee = owners[i], callees[i]
            if owner in cloneable:
                # One private copy of the body statement per caller site.
                for k in range(len(caller_sites[owner])):
                    emitted.append(clone(a, owner, k))
                    self.added_assignments += 1
                self.added_assignments -= 1  # replaced, not purely added
            elif callee in cloneable:
                key = (a.location.filename, a.location.line)
                k = site_index[callee][key]
                emitted.append(clone(a, callee, k))
            else:
                emitted.append(a)

        return out


# ---------------------------------------------------------------------------
# Off-line variable substitution (Rountev & Chandra, the paper's [21])
# ---------------------------------------------------------------------------


class OfflineVariableSubstitution:
    """Collapse variables that provably share their points-to set.

    The safe, simple core of [21]: a variable ``x`` whose *only* value
    source is a single plain copy ``x = y`` (direct, no operation), whose
    address is never taken, and which is never written through a pointer
    (conservatively: appears in no complex assignment's written side) has
    ``pts(x) == pts(y)`` at fixpoint — so every occurrence of ``x`` can be
    replaced by ``y`` and the copy dropped.  Chains collapse transitively.

    This shrinks the constraint system before the analyze phase; results
    for the *surviving* variables are bit-identical, and the substitution
    map lets clients recover the eliminated ones.
    """

    name = "offline-variable-substitution"

    def __init__(self):
        self.substituted: dict[str, str] = {}
        self.removed_assignments = 0

    def apply(self, image: UnitIR) -> UnitIR:
        taken = address_taken(image)
        sources: dict[str, list[PrimitiveAssignment]] = {}
        store_written: set[str] = set()
        protected: set[str] = set()

        for record in image.function_records.values():
            protected.update(record.args)
            protected.add(record.ret)
        for record in image.indirect_calls.values():
            protected.update(record.args)
            protected.add(record.ret)

        for a in image.assignments:
            if a.kind in (PrimitiveKind.COPY, PrimitiveKind.ADDR,
                          PrimitiveKind.LOAD):
                sources.setdefault(a.dst, []).append(a)
            if a.kind in (PrimitiveKind.STORE, PrimitiveKind.STORE_LOAD):
                # *p = ...: anything p may point to gains a source we can't
                # see offline; forbid substituting potential targets, i.e.
                # all address-taken objects (they are excluded anyway).
                pass

        def substitutable(name: str) -> str | None:
            if name in taken or name in protected:
                return None
            obj = image.objects.get(name)
            if obj is not None and obj.kind in (ObjectKind.FUNCTION,
                                                ObjectKind.HEAP,
                                                ObjectKind.FIELD):
                return None
            defs = sources.get(name, [])
            if len(defs) != 1:
                return None
            d = defs[0]
            if d.kind is not PrimitiveKind.COPY or d.op:
                return None
            if d.src == name:
                return None
            if d.src in protected:
                # Never substitute into a function-interface variable: a
                # later transform (context-sensitivity cloning) may rename
                # those, which would strand the substitution mapping.
                return None
            return d.src

        # Resolve chains with cycle detection.
        resolved: dict[str, str] = {}

        def resolve(name: str, seen: set[str]) -> str:
            if name in resolved:
                return resolved[name]
            if name in seen:
                return name
            seen.add(name)
            target = substitutable(name)
            final = name if target is None else resolve(target, seen)
            resolved[name] = final
            return final

        for name in list(image.objects):
            resolve(name, set())
        self.substituted = {
            name: final for name, final in resolved.items() if final != name
        }

        out = _output(image, {}, [])
        for name, obj in image.objects.items():
            if name not in self.substituted:
                out.objects[name] = obj
        seen_keys: set[tuple] = set()
        for a in image.assignments:
            dst = resolved.get(a.dst, a.dst)
            src = resolved.get(a.src, a.src)
            if a.kind is PrimitiveKind.COPY and dst == src:
                self.removed_assignments += 1
                continue
            if a.dst in self.substituted and a.kind is PrimitiveKind.COPY \
                    and resolved.get(a.src, a.src) == dst:
                self.removed_assignments += 1
                continue
            key = (a.kind, dst, src, a.op, a.strength)
            if key in seen_keys:
                self.removed_assignments += 1
                continue
            seen_keys.add(key)
            out.assignments.append(PrimitiveAssignment(
                kind=a.kind, dst=dst, src=src, strength=a.strength,
                op=a.op, location=a.location,
            ))
            _ensure_object(out, dst, image.objects.get(a.dst))
            _ensure_object(out, src, image.objects.get(a.src))
        return out

    def recover(self, result_pts: dict[str, frozenset[str]],
                name: str) -> frozenset[str]:
        """Points-to set of an eliminated variable, via its representative."""
        representative = self.substituted.get(name, name)
        return result_pts.get(representative, frozenset())
