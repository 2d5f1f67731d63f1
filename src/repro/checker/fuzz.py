"""Differential fuzzing across every solver and solver configuration.

Each iteration draws a deterministic case from the seed: a synthetic
program (:mod:`repro.synth.generator`, rotating through all Table 2
profiles), a struct field model, and one pretransitive toggle combination
(lval cache, cycle elimination, difference propagation, demand loading).
All registered solvers run on the compiled program; then:

* solvers with ``precision == "andersen"`` (pretransitive in both its
  default and toggled configurations, and transitive) must agree
  **exactly**, per object.  The paper's §4 bit-vector implementation is
  not a separate entry: it is the shared integer core (int-bitmask
  points-to sets) under :class:`~repro.solvers.TransitiveSolver`;
* the over-approximating solvers (steensgaard, onelevel) must report a
  **superset** per object;
* every result must pass the soundness oracle
  (:func:`repro.checker.oracle.check_result`).

On any failure the program is delta-debugged
(:mod:`repro.checker.shrink`) down to a minimal failing C program and
written to disk with a ``REPRO.md`` describing the failure and how to
replay it.  Progress is emitted as ``checker.fuzz.case`` events and
``checker.fuzz.*`` counters.
"""

from __future__ import annotations

import dataclasses
import os
import random
from dataclasses import dataclass

from ..cla.store import MemoryStore
from ..engine.events import EVENTS, FuzzCaseEvent
from ..engine.obs import REGISTRY
from ..engine.pipeline import CompileOptions, Pipeline
from ..solvers import SOLVERS
from ..synth.generator import HEADER_NAME, generate
from ..synth.profiles import BENCHMARK_ORDER, get_profile
from .oracle import check_result
from .shrink import ShrinkResult, shrink_program

_CASES = REGISTRY.counter("checker.fuzz.cases")
_SOLVER_RUNS = REGISTRY.counter("checker.fuzz.solver_runs")
_FAILURES = REGISTRY.counter("checker.fuzz.failures")

#: (cache, cycle elimination, difference propagation, demand loading) —
#: every iteration exercises one combination beyond the all-on default.
TOGGLE_MATRIX = [
    (c, y, d, m)
    for c in (True, False) for y in (True, False)
    for d in (True, False) for m in (True, False)
][1:] + [(True, True, True, True)]  # all-on last: it duplicates default


def toggle_label(toggles: tuple[bool, bool, bool, bool]) -> str:
    names = ("cache", "cycles", "diff", "demand")
    return ",".join(
        f"{name}={'on' if on else 'off'}"
        for name, on in zip(names, toggles)
    )


@dataclass(frozen=True)
class FuzzConfig:
    """One fuzz campaign (fully determined by ``seed``)."""

    seed: int = 0
    iterations: int = 50
    #: cap on translation units per generated program (profile files are
    #: clamped, keeping shrink's unit-level pass small)
    max_units: int = 3
    scale: float = 0.01
    profiles: tuple[str, ...] = tuple(BENCHMARK_ORDER)
    out_dir: str = "fuzz-repros"
    check_minimal: bool = False
    shrink_budget: int = 400


@dataclass
class FuzzFailure:
    """A detected bug, with its minimized reproduction."""

    iteration: int
    case_seed: int
    profile: str
    field_based: bool
    toggles: tuple[bool, bool, bool, bool]
    descriptions: list[str]
    repro_dir: str = ""
    shrink: ShrinkResult | None = None


@dataclass
class FuzzOutcome:
    config: FuzzConfig
    iterations_run: int = 0
    solver_runs: int = 0
    failure: FuzzFailure | None = None
    oracle_checks: int = 0

    @property
    def ok(self) -> bool:
        return self.failure is None


def compile_program(header: str, files: dict[str, str],
                    field_based: bool) -> list:
    """Compile a generated program's sources against its shared header."""
    options = CompileOptions(field_based=field_based)
    options.virtual_files[HEADER_NAME] = header
    return Pipeline(options).compile_units(files)


def run_battery(
    units: list,
    toggles: tuple[bool, bool, bool, bool] = (True, True, True, True),
    check_minimal: bool = False,
    max_failures: int = 20,
) -> list[str]:
    """All solvers + one pretransitive variant on one constraint set.

    Returns failure descriptions (empty = clean).  The comparison groups
    come from each solver class's ``precision`` attribute; the oracle runs
    on every result.  Each solve is one :meth:`Pipeline.analyze` (an
    ``analyze`` span) on a store of its own.
    """
    failures: list[str] = []
    reference = MemoryStore(list(units))
    pipeline = Pipeline()

    def note(message: str) -> None:
        if len(failures) < max_failures:
            failures.append(message)

    andersen: dict[str, object] = {}
    over: dict[str, object] = {}
    for name, cls in sorted(SOLVERS.items()):
        result = pipeline.analyze(MemoryStore(list(units)), name)
        _SOLVER_RUNS.add(1)
        (andersen if cls.precision == "andersen" else over)[name] = result
    cache, cycles, diff, demand = toggles
    variant = f"pretransitive[{toggle_label(toggles)}]"
    andersen[variant] = pipeline.analyze(
        MemoryStore(list(units)), "pretransitive",
        enable_cache=cache,
        enable_cycle_elimination=cycles,
        enable_diff_propagation=diff,
        demand_load=demand,
    )
    _SOLVER_RUNS.add(1)

    ref = andersen["pretransitive"]
    names = sorted(reference.object_names())
    for name in names:
        want = ref.points_to(name)
        for label, result in andersen.items():
            if label == "pretransitive":
                continue
            got = result.points_to(name)
            if got != want:
                note(
                    f"disagreement on pts({name}): "
                    f"pretransitive={sorted(want)} vs "
                    f"{label}={sorted(got)}"
                )
        for label, result in over.items():
            got = result.points_to(name)
            if not want <= got:
                note(
                    f"{label} is not a superset on pts({name}): "
                    f"missing {sorted(want - got)}"
                )

    for label, result in {**andersen, **over}.items():
        minimal = check_minimal and label in andersen
        report = check_result(reference, result, check_minimal=minimal)
        if not report.ok:
            note(f"oracle violations for {label}:")
            for violation in report.violations[:5]:
                note(f"  {violation.render()}")
    return failures


def _write_repro(config: FuzzConfig, failure: FuzzFailure) -> str:
    directory = os.path.join(
        config.out_dir, f"fail-{failure.profile}-{failure.case_seed}"
    )
    os.makedirs(directory, exist_ok=True)
    shrink = failure.shrink
    assert shrink is not None
    with open(os.path.join(directory, HEADER_NAME), "w") as f:
        f.write(shrink.header)
    for name, text in shrink.files.items():
        with open(os.path.join(directory, name), "w") as f:
            f.write(text)
    lines = [
        "# Minimized solver-bug reproduction",
        "",
        f"- campaign seed: {config.seed}, iteration {failure.iteration}",
        f"- generator: profile `{failure.profile}`, "
        f"seed {failure.case_seed}, scale {config.scale}",
        f"- field model: "
        f"{'field-based' if failure.field_based else 'field-independent'}",
        f"- pretransitive variant: {toggle_label(failure.toggles)}",
        f"- shrunk to {shrink.assignment_lines} assignment statement(s) "
        f"in {len(shrink.files)} file(s) "
        f"({shrink.tests_run} shrink tests)",
        "",
        "## Failure",
        "",
    ]
    lines += [f"    {d}" for d in failure.descriptions]
    lines += [
        "",
        "## Surviving statements",
        "",
    ]
    lines += [f"    {s}" for s in shrink.statements]
    flag = "" if failure.field_based else " --field-independent"
    lines += [
        "",
        "## Replay",
        "",
        f"    repro-cla check {directory}/*.c --all-solvers{flag}",
        "",
    ]
    with open(os.path.join(directory, "REPRO.md"), "w") as f:
        f.write("\n".join(lines))
    return directory


def run_fuzz(config: FuzzConfig) -> FuzzOutcome:
    """Run one seeded campaign; stops (and shrinks) at the first failure."""
    rng = random.Random(config.seed)
    outcome = FuzzOutcome(config=config)
    runs_before = _SOLVER_RUNS.value
    for iteration in range(config.iterations):
        case_seed = rng.randrange(1 << 31)
        profile_name = config.profiles[iteration % len(config.profiles)]
        field_based = (iteration // len(config.profiles)) % 2 == 0
        toggles = TOGGLE_MATRIX[iteration % len(TOGGLE_MATRIX)]
        profile = get_profile(profile_name, config.scale)
        if profile.files > config.max_units:
            profile = dataclasses.replace(profile, files=config.max_units)
        program = generate(profile, seed=case_seed)
        units = compile_program(program.header, program.files, field_based)
        descriptions = run_battery(
            units, toggles, check_minimal=config.check_minimal
        )
        outcome.iterations_run = iteration + 1
        outcome.oracle_checks += len(SOLVERS) + 1
        _CASES.add(1)
        if EVENTS:
            EVENTS.emit(FuzzCaseEvent(
                iteration=iteration, seed=case_seed, profile=profile_name,
                field_based=field_based, config=toggle_label(toggles),
                assignments=sum(len(u.assignments) for u in units),
                ok=not descriptions, failures=len(descriptions),
            ))
        if not descriptions:
            continue
        _FAILURES.add(1)
        failure = FuzzFailure(
            iteration=iteration, case_seed=case_seed, profile=profile_name,
            field_based=field_based, toggles=toggles,
            descriptions=descriptions,
        )
        failure.shrink = shrink_program(
            program.header,
            program.files,
            lambda files: _still_fails(
                program.header, files, field_based, toggles,
                config.check_minimal,
            ),
            max_tests=config.shrink_budget,
        )
        failure.repro_dir = _write_repro(config, failure)
        outcome.failure = failure
        break
    outcome.solver_runs = _SOLVER_RUNS.value - runs_before
    return outcome


def _still_fails(
    header: str,
    files: dict[str, str],
    field_based: bool,
    toggles: tuple[bool, bool, bool, bool],
    check_minimal: bool,
) -> bool:
    """The shrink predicate: does this candidate still expose a failure?

    A candidate that no longer compiles does not reproduce anything, so it
    reads as passing and ddmin routes around it.
    """
    try:
        units = compile_program(header, files, field_based)
    except Exception:
        return False
    try:
        return bool(run_battery(units, toggles,
                                check_minimal=check_minimal,
                                max_failures=1))
    except Exception:
        # A crash on the reduced program is still a reproduction.
        return True
