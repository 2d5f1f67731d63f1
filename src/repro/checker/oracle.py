"""The soundness oracle: is a points-to result a closed model?

Andersen's analysis computes the least solution of the inclusion
constraints induced by the five primitive-assignment kinds (§5).  Whatever
algorithm produced a :class:`~repro.solvers.base.PointsToResult`, the
result is *sound* only if it is closed under those rules:

=============  ===============================================
``x = &y``     ``y ∈ pts(x)``
``x = y``      ``pts(y) ⊆ pts(x)``
``*p = y``     ``∀z ∈ pts(p): pts(y) ⊆ pts(z)``
``x = *p``     ``∀z ∈ pts(p): pts(z) ⊆ pts(x)``
``*p = *q``    ``∀z ∈ pts(p), ∀w ∈ pts(q): pts(w) ⊆ pts(z)``
=============  ===============================================

plus the analysis-time call/return bindings of §4: for every function
pointer ``p`` with an indirect-call record, each function ``f ∈ pts(p)``
contributes ``pts(<p>$argN) ⊆ pts(f$argN)`` and ``pts(f$ret) ⊆
pts(<p>$ret)``.

:func:`check_result` verifies all of this by direct enumeration over the
store — no graph, no worklist, no cache, no shared code with any solver —
so a bug in the solver machinery cannot hide itself in the check.  The
enumeration goes through the *uncounted* ``fetch_statics``/``fetch_block``
seams, so checking never distorts the load accounting being reported.

Closure holds for every solver in the registry: the subset-based solvers
compute the least closed model, and the unification-based ones
(steensgaard, onelevel) compute closed over-approximations of it.  The
optional *minimality* check (every target must be the source of some
``x = &y``) is only valid for solvers whose ``precision`` is
``"andersen"`` — unification can merge spurious targets in legitimately.

Solvers skip assignments whose endpoints cannot carry pointers (§6's
"non-pointer arithmetic assignments are usually ignored"); the oracle
replicates that relevance filter exactly, otherwise every int-only
assignment would read as a violation.

Demand loading gets checked for free: a block the solver never loaded is
exactly one whose trigger object ended with an empty points-to set, under
which every rule above is vacuous — so enumerating *all* blocks here is a
true independent check that demand loading skipped nothing relevant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cla.store import Block, ConstraintStore
from ..engine.events import EVENTS, CheckViolationEvent
from ..engine.obs import REGISTRY
from ..ir.primitives import (
    FunctionRecord,
    IndirectCallRecord,
    PrimitiveAssignment,
    PrimitiveKind,
)
from ..solvers.base import PointsToResult

_CONSTRAINTS_CHECKED = REGISTRY.counter("checker.constraints_checked")
_VIOLATIONS = REGISTRY.counter("checker.violations")
_CHECKS = REGISTRY.counter("checker.runs")

#: How many missing targets a violation records verbatim.
_MISSING_SAMPLE = 8


@dataclass(frozen=True)
class Violation:
    """One constraint the result fails to close.

    ``pointer`` is the object whose points-to set is deficient (for the
    complex rules that is the *target* ``z ∈ pts(p)``, not the pointer in
    the source text); ``missing`` samples the absent targets.
    """

    rule: str  # addr|copy|store|load|store-load|call-arg|call-ret|spurious
    pointer: str
    missing: tuple[str, ...]
    missing_count: int
    assignment: str  # rendered source form of the constraint
    location: str

    def render(self) -> str:
        sample = ", ".join(self.missing)
        more = (f" (+{self.missing_count - len(self.missing)} more)"
                if self.missing_count > len(self.missing) else "")
        return (f"[{self.rule}] {self.assignment}  @ {self.location}: "
                f"pts({self.pointer}) is missing {{{sample}}}{more}")


@dataclass
class CheckReport:
    """Everything :func:`check_result` verified, and what failed."""

    solver: str
    constraints_checked: int = 0
    bindings_checked: int = 0
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        head = (f"{self.solver}: {self.constraints_checked} constraints + "
                f"{self.bindings_checked} call bindings checked, "
                f"{len(self.violations)} violation(s)")
        if self.ok:
            return head
        return "\n".join([head] + [f"  {v.render()}" for v in self.violations])


class _Oracle:
    def __init__(self, store: ConstraintStore, result: PointsToResult):
        self.store = store
        self.result = result
        self.report = CheckReport(solver=result.solver)
        self.flags = store.object_flags()

    # -- relevance (mirrors the solvers' intake, ObjectUniverse.relevant) ---

    def _relevant(self, kind: PrimitiveKind, dst: str, src: str) -> bool:
        non_pointers = self.flags.non_pointers
        if dst in non_pointers:
            return False
        if kind is not PrimitiveKind.ADDR and src in non_pointers:
            return False
        return True

    # -- violation plumbing ------------------------------------------------

    def _violate(self, rule: str, pointer: str, missing: frozenset[str],
                 assignment: str, location: str) -> None:
        sample = tuple(sorted(missing)[:_MISSING_SAMPLE])
        self.report.violations.append(Violation(
            rule=rule, pointer=pointer, missing=sample,
            missing_count=len(missing), assignment=assignment,
            location=location,
        ))
        _VIOLATIONS.add(1)
        if EVENTS:
            EVENTS.emit(CheckViolationEvent(
                solver=self.result.solver, rule=rule, pointer=pointer,
                missing=len(missing), assignment=assignment,
                location=location,
            ))

    def _require_subset(self, rule: str, sub: str, sup: str,
                        assignment: str, location: str) -> None:
        missing = self.result.points_to(sub) - self.result.points_to(sup)
        if missing:
            self._violate(rule, sup, missing, assignment, location)

    # -- the five primitive rules -----------------------------------------

    def _check_assignment(self, a: PrimitiveAssignment) -> None:
        if not self._relevant(a.kind, a.dst, a.src):
            return
        self.report.constraints_checked += 1
        pts = self.result.points_to
        rendered = a.render()
        where = a.location.brief()
        if a.kind is PrimitiveKind.ADDR:
            if a.src not in pts(a.dst):
                self._violate("addr", a.dst, frozenset([a.src]),
                              rendered, where)
        elif a.kind is PrimitiveKind.COPY:
            self._require_subset("copy", a.src, a.dst, rendered, where)
        elif a.kind is PrimitiveKind.STORE:
            # *p = y: every target of p must absorb pts(y).
            for z in pts(a.dst):
                self._require_subset("store", a.src, z, rendered, where)
        elif a.kind is PrimitiveKind.LOAD:
            # x = *p: pts(x) must absorb every target's set.  The union
            # over pts(p) is computed once instead of |pts(p)| subset
            # probes against the same x.
            flowed: set[str] = set()
            for z in pts(a.src):
                flowed |= pts(z)
            missing = frozenset(flowed - pts(a.dst))
            if missing:
                self._violate("load", a.dst, missing, rendered, where)
        elif a.kind is PrimitiveKind.STORE_LOAD:
            # *p = *q: everything readable through q must be absorbed by
            # every target of p.
            flowed = set()
            for w in pts(a.src):
                flowed |= pts(w)
            if not flowed:
                return
            frozen = frozenset(flowed)
            for z in pts(a.dst):
                missing = frozen - pts(z)
                if missing:
                    self._violate("store-load", z, frozenset(missing),
                                  rendered, where)

    # -- §4 call/return bindings -------------------------------------------

    def _check_binding(self, pointer: str, record: IndirectCallRecord,
                       frecord: FunctionRecord) -> None:
        where = record.location.brief()
        for formal, actual in zip(frecord.args, record.args):
            if self._relevant(PrimitiveKind.COPY, formal, actual):
                self.report.bindings_checked += 1
                self._require_subset(
                    "call-arg", actual, formal,
                    f"{formal} = {actual}  [call via {pointer}]", where,
                )
        if self._relevant(PrimitiveKind.COPY, record.ret, frecord.ret):
            self.report.bindings_checked += 1
            self._require_subset(
                "call-ret", frecord.ret, record.ret,
                f"{record.ret} = {frecord.ret}  [return via {pointer}]",
                where,
            )

    def _check_calls(self) -> None:
        store = self.store
        functions = self.flags.functions
        for name in sorted(self.flags.funcptrs):
            block = store.fetch_block(name)
            if block is None or block.indirect_record is None:
                continue
            record = block.indirect_record
            for callee in sorted(self.result.points_to(name)):
                if callee not in functions:
                    continue  # imprecision artifact, as in BaseSolver._link
                fblock = store.fetch_block(callee)
                if fblock is None or fblock.function_record is None:
                    continue
                self._check_binding(name, record, fblock.function_record)

    # -- minimality (subset-based solvers only) ----------------------------

    def _check_minimal(self) -> None:
        """Every target must originate in some relevant ``x = &y``.

        Only meaningful for ``precision == "andersen"`` solvers — callers
        gate on that; unification merges extra targets in soundly.
        """
        taken: set[str] = set()
        for a in self._all_assignments():
            if (a.kind is PrimitiveKind.ADDR
                    and self._relevant(a.kind, a.dst, a.src)):
                taken.add(a.src)
        for name, targets in sorted(self.result.pts.items()):
            spurious = targets - taken
            if spurious:
                self._violate(
                    "spurious", name, frozenset(spurious),
                    f"{name} points to objects never address-taken",
                    "<whole program>",
                )

    # -- enumeration -------------------------------------------------------

    def _all_blocks(self) -> list[Block]:
        blocks = []
        for name in self.store.block_names():
            block = self.store.fetch_block(name)
            if block is not None:
                blocks.append(block)
        return blocks

    def _all_assignments(self):
        yield from self.store.fetch_statics()
        for block in self._all_blocks():
            yield from block.assignments

    def run(self, check_minimal: bool) -> CheckReport:
        for a in self._all_assignments():
            self._check_assignment(a)
        self._check_calls()
        if check_minimal:
            self._check_minimal()
        _CONSTRAINTS_CHECKED.add(self.report.constraints_checked)
        _CHECKS.add(1)
        return self.report


def check_result(
    store: ConstraintStore,
    result: PointsToResult,
    check_minimal: bool = False,
) -> CheckReport:
    """Verify ``result`` is a closed model of ``store``'s constraints.

    Every violated constraint is reported with its source location (and
    emitted as a ``checker.violation`` event).  ``check_minimal`` adds the
    no-spurious-targets check; only pass it for results from solvers whose
    ``precision`` is ``"andersen"``.
    """
    return _Oracle(store, result).run(check_minimal)
