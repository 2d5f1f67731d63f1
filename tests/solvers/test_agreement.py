"""Property-based cross-validation of the four solvers.

Random constraint systems are generated directly at the primitive-
assignment level (bypassing the C frontend, so thousands of cases run in
seconds).  Invariants:

* the three subset-based solvers (pre-transitive, transitive, bit-vector)
  compute *identical* points-to sets — they implement the same analysis;
* the pre-transitive solver agrees with itself under every combination of
  its optimization toggles and loading modes;
* Steensgaard's unification result is a superset of Andersen's on every
  object (coarser, never unsound relative to it).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cla.store import MemoryStore
from repro.ir.lower import UnitIR
from repro.ir.objects import ObjectKind, ProgramObject
from repro.ir.primitives import (
    FunctionRecord,
    IndirectCallRecord,
    PrimitiveAssignment,
    PrimitiveKind,
)
from repro.solvers import (
    PreTransitiveSolver,
    SteensgaardSolver,
    TransitiveSolver,
)

N_VARS = 8
VAR_NAMES = [f"v{i}" for i in range(N_VARS)]

var = st.sampled_from(VAR_NAMES)

assignment = st.builds(
    PrimitiveAssignment,
    kind=st.sampled_from(list(PrimitiveKind)),
    dst=var,
    src=var,
)

constraint_systems = st.lists(assignment, min_size=1, max_size=25)

# -- random systems with functions and indirect calls -----------------------
#
# Function objects carry a FunctionRecord (f$arg1/f$ret); funcptr objects
# carry an IndirectCallRecord (<p>$arg1/<p>$ret).  Taking a function's
# address and storing it through random pointer flow exercises the
# analysis-time linking path (§4) in every solver.

FUNC_NAMES = [f"f{i}" for i in range(3)]
FUNCPTR_NAMES = [f"fp{i}" for i in range(2)]
ARG_RET_NAMES = (
    [f"{f}$arg1" for f in FUNC_NAMES] + [f"{f}$ret" for f in FUNC_NAMES]
    + [f"<{p}>$arg1" for p in FUNCPTR_NAMES]
    + [f"<{p}>$ret" for p in FUNCPTR_NAMES]
)
ALL_NAMES = VAR_NAMES + FUNC_NAMES + FUNCPTR_NAMES + ARG_RET_NAMES

flow_name = st.sampled_from(VAR_NAMES + FUNCPTR_NAMES + ARG_RET_NAMES)

#: Random flow among variables, funcptrs and standardized arg/ret vars.
flow_assignment = st.builds(
    PrimitiveAssignment,
    kind=st.sampled_from(list(PrimitiveKind)),
    dst=flow_name,
    src=flow_name,
)

#: dst = &f for a function f — the seed that makes linking fire.
take_address = st.builds(
    PrimitiveAssignment,
    kind=st.just(PrimitiveKind.ADDR),
    dst=st.sampled_from(VAR_NAMES + FUNCPTR_NAMES),
    src=st.sampled_from(FUNC_NAMES),
)

funcptr_systems = st.tuples(
    st.lists(take_address, min_size=1, max_size=4),
    st.lists(flow_assignment, min_size=1, max_size=20),
).map(lambda pair: pair[0] + pair[1])


def make_store(assignments) -> MemoryStore:
    unit = UnitIR(filename="synth.c")
    for name in VAR_NAMES:
        unit.objects[name] = ProgramObject(
            name=name, kind=ObjectKind.VARIABLE, may_point=True,
        )
    unit.assignments = list(assignments)
    return MemoryStore(unit)


def make_funcptr_store(assignments) -> MemoryStore:
    unit = UnitIR(filename="synth_funcptr.c")
    for name in VAR_NAMES + ARG_RET_NAMES:
        unit.objects[name] = ProgramObject(
            name=name, kind=ObjectKind.VARIABLE, may_point=True,
        )
    for name in FUNC_NAMES:
        unit.objects[name] = ProgramObject(
            name=name, kind=ObjectKind.FUNCTION, may_point=True,
        )
        unit.function_records[name] = FunctionRecord(
            function=name, args=[f"{name}$arg1"], ret=f"{name}$ret",
        )
    for name in FUNCPTR_NAMES:
        unit.objects[name] = ProgramObject(
            name=name, kind=ObjectKind.VARIABLE, may_point=True,
            is_funcptr=True,
        )
        unit.indirect_calls[name] = IndirectCallRecord(
            pointer=name, args=[f"<{name}>$arg1"], ret=f"<{name}>$ret",
        )
    unit.assignments = list(assignments)
    return MemoryStore(unit)


def pts_map(result, names=VAR_NAMES):
    return {name: result.points_to(name) for name in names}


@settings(max_examples=200, deadline=None)
@given(constraint_systems)
def test_subset_solvers_agree(assignments):
    expected = pts_map(PreTransitiveSolver(make_store(assignments)).solve())
    actual = pts_map(TransitiveSolver(make_store(assignments)).solve())
    assert actual == expected


@settings(max_examples=100, deadline=None)
@given(constraint_systems)
def test_pretransitive_toggles_agree(assignments):
    expected = pts_map(PreTransitiveSolver(make_store(assignments)).solve())
    for cache in (True, False):
        for cycles in (True, False):
            for diff in (True, False):
                result = PreTransitiveSolver(
                    make_store(assignments),
                    enable_cache=cache,
                    enable_cycle_elimination=cycles,
                    enable_diff_propagation=diff,
                ).solve()
                assert pts_map(result) == expected, (cache, cycles, diff)


@settings(max_examples=100, deadline=None)
@given(constraint_systems)
def test_demand_and_full_loading_agree(assignments):
    demand = pts_map(
        PreTransitiveSolver(make_store(assignments), demand_load=True).solve()
    )
    full = pts_map(
        PreTransitiveSolver(make_store(assignments), demand_load=False).solve()
    )
    assert demand == full


@settings(max_examples=200, deadline=None)
@given(constraint_systems)
def test_steensgaard_is_superset(assignments):
    andersen = pts_map(PreTransitiveSolver(make_store(assignments)).solve())
    steens = pts_map(SteensgaardSolver(make_store(assignments)).solve())
    for name in VAR_NAMES:
        assert andersen[name] <= steens[name], name


@settings(max_examples=100, deadline=None)
@given(constraint_systems)
def test_andersen_base_facts_always_present(assignments):
    """x = &y must always put y in pts(x) — the deduction system's axiom."""
    result = PreTransitiveSolver(make_store(assignments)).solve()
    for a in assignments:
        if a.kind is PrimitiveKind.ADDR:
            assert a.src in result.points_to(a.dst)


@settings(max_examples=100, deadline=None)
@given(constraint_systems)
def test_copy_subset_invariant(assignments):
    """x = y implies pts(x) >= pts(y) at fixpoint (the subset rule)."""
    result = PreTransitiveSolver(make_store(assignments)).solve()
    for a in assignments:
        if a.kind is PrimitiveKind.COPY:
            assert result.points_to(a.src) <= result.points_to(a.dst)


@settings(max_examples=100, deadline=None)
@given(constraint_systems)
def test_store_subset_invariant(assignments):
    """*p = y implies pts(z) >= pts(y) for every z in pts(p)."""
    result = PreTransitiveSolver(make_store(assignments)).solve()
    for a in assignments:
        if a.kind is PrimitiveKind.STORE:
            for z in result.points_to(a.dst):
                assert result.points_to(a.src) <= result.points_to(z), (a, z)


@settings(max_examples=100, deadline=None)
@given(constraint_systems)
def test_load_subset_invariant(assignments):
    """x = *p implies pts(x) >= pts(z) for every z in pts(p)."""
    result = PreTransitiveSolver(make_store(assignments)).solve()
    for a in assignments:
        if a.kind is PrimitiveKind.LOAD:
            for z in result.points_to(a.src):
                assert result.points_to(z) <= result.points_to(a.dst), (a, z)


@settings(max_examples=50, deadline=None)
@given(constraint_systems)
def test_minimality_no_spurious_base_targets(assignments):
    """Every element of every points-to set traces back to some x = &y."""
    result = PreTransitiveSolver(make_store(assignments)).solve()
    addr_targets = {
        a.src for a in assignments if a.kind is PrimitiveKind.ADDR
    }
    for name in VAR_NAMES:
        assert result.points_to(name) <= addr_targets


# -- function-pointer linking -----------------------------------------------


@settings(max_examples=100, deadline=None)
@given(funcptr_systems)
def test_subset_solvers_agree_with_funcptrs(assignments):
    """Analysis-time linking of indirect calls preserves exact agreement
    among the subset-based solvers."""
    expected = pts_map(
        PreTransitiveSolver(make_funcptr_store(assignments)).solve(),
        ALL_NAMES,
    )
    actual = pts_map(
        TransitiveSolver(make_funcptr_store(assignments)).solve(), ALL_NAMES,
    )
    assert actual == expected


@settings(max_examples=50, deadline=None)
@given(funcptr_systems)
def test_pretransitive_toggles_agree_with_funcptrs(assignments):
    """All eight toggle combinations agree on funcptr-linking systems."""
    expected = pts_map(
        PreTransitiveSolver(make_funcptr_store(assignments)).solve(),
        ALL_NAMES,
    )
    for cache in (True, False):
        for cycles in (True, False):
            for diff in (True, False):
                result = PreTransitiveSolver(
                    make_funcptr_store(assignments),
                    enable_cache=cache,
                    enable_cycle_elimination=cycles,
                    enable_diff_propagation=diff,
                ).solve()
                assert pts_map(result, ALL_NAMES) == expected, (
                    cache, cycles, diff,
                )


@settings(max_examples=100, deadline=None)
@given(funcptr_systems)
def test_funcptr_linking_invariant(assignments):
    """For each function f in pts(fp): formals absorb the call site's
    actuals and the call site's return absorbs f's return (§4's linking
    rule, at fixpoint)."""
    result = PreTransitiveSolver(make_funcptr_store(assignments)).solve()
    for p in FUNCPTR_NAMES:
        for f in result.points_to(p):
            if f not in FUNC_NAMES:
                continue
            assert (result.points_to(f"<{p}>$arg1")
                    <= result.points_to(f"{f}$arg1")), (p, f)
            assert (result.points_to(f"{f}$ret")
                    <= result.points_to(f"<{p}>$ret")), (p, f)


@settings(max_examples=50, deadline=None)
@given(funcptr_systems)
def test_block_cache_budget_never_changes_results(assignments):
    """The keep-or-discard cache (§4) is purely a memory/IO trade: the
    solve under budget 0 (retain nothing), a small budget, and an
    unbounded cache is bit-identical to the uncached solve, and bounded
    residency never exceeds max(budget, statics)."""
    from repro.cla.cache import BlockCache

    expected = pts_map(
        PreTransitiveSolver(make_funcptr_store(assignments)).solve(),
        ALL_NAMES,
    )
    for budget in (0, 7, None):
        cache = BlockCache(make_funcptr_store(assignments), budget)
        result = PreTransitiveSolver(cache).solve()
        assert pts_map(result, ALL_NAMES) == expected, budget
        stats = cache.stats
        assert stats.in_core <= stats.loaded <= stats.in_file
        if budget is not None:
            statics = len(cache.fetch_statics())
            assert stats.peak_in_core <= max(budget, statics)


@settings(max_examples=100, deadline=None)
@given(funcptr_systems)
def test_steensgaard_superset_with_funcptrs(assignments):
    andersen = pts_map(
        PreTransitiveSolver(make_funcptr_store(assignments)).solve(),
        ALL_NAMES,
    )
    steens = pts_map(
        SteensgaardSolver(make_funcptr_store(assignments)).solve(),
        ALL_NAMES,
    )
    for name in ALL_NAMES:
        assert andersen[name] <= steens[name], name
