"""§4's database-to-database transformers, measured.

Two experiments the paper describes around its architecture:

* **context sensitivity by controlled duplication** — the paper ran it as
  an experiment and §5 notes the literature's verdict that the payoff for
  Andersen's analysis is modest ("recent results suggest that this
  approach may be of little benefit [13]").  The bench measures both
  sides: precision gained (relations removed) and cost paid (assignments
  added, extra solve time) on a synthetic profile.
* **off-line variable substitution** (Rountev & Chandra, the paper's
  [21]) — a pure win: fewer constraints, identical results for surviving
  variables.
"""

import pytest

from conftest import compiled_units
from repro.cla.linker import absorb_object_files
from repro.cla.store import MemoryStore
from repro.cla.transform import (
    ContextSensitivity,
    OfflineVariableSubstitution,
)
from repro.cla.writer import ObjectFileWriter
from repro.ir.lower import UnitIR
from repro.solvers import PreTransitiveSolver

PROFILE = "gcc"


def image_for(profile: str) -> UnitIR:
    """The transforms' input: the linked database as one unit."""
    _program, units = compiled_units(profile)
    return MemoryStore(units).to_unit()


def test_ovs_shrinks_database(benchmark, report):
    image = image_for(PROFILE)
    before = len(image.assignments)
    ovs = OfflineVariableSubstitution()

    out = benchmark.pedantic(lambda: ovs.apply(image), rounds=1,
                             iterations=1)
    after = len(out.assignments)
    assert after < before
    baseline = PreTransitiveSolver(MemoryStore(image)).solve()
    optimized = PreTransitiveSolver(MemoryStore(out)).solve()
    # Survivors keep identical points-to sets; eliminated variables are
    # recoverable through the substitution map.
    for name in list(optimized.pts)[:500]:
        if name in baseline.pts:
            assert optimized.points_to(name) == baseline.points_to(name)
    for name in list(ovs.substituted)[:200]:
        assert ovs.recover(optimized.pts, name) == \
            baseline.points_to(name), name
    report.append(
        f"[transform] OVS on {PROFILE}: {before} -> {after} assignments "
        f"({len(ovs.substituted)} variables substituted)"
    )


def test_context_sensitivity_cost_and_benefit(benchmark, report):
    image = image_for(PROFILE)
    baseline = PreTransitiveSolver(MemoryStore(image)).solve()
    cs = ContextSensitivity(max_sites=4)
    transformed = cs.apply(image)

    def solve_sensitive():
        return PreTransitiveSolver(MemoryStore(transformed)).solve()

    sensitive = benchmark.pedantic(solve_sensitive, rounds=1, iterations=1)
    assert cs.cloned_functions > 0
    base_rel = baseline.points_to_relations()
    sens_rel = sensitive.points_to_relations()
    report.append(
        f"[transform] context-sensitivity on {PROFILE}: cloned "
        f"{cs.cloned_functions} functions (+{cs.added_assignments} "
        f"assignments); relations {base_rel} -> {sens_rel} "
        f"(paper/[13]: expect modest change)"
    )
    # Cloning is a refinement: after folding clone suffixes back
    # (name@k -> name), every global's sensitive points-to set must be a
    # subset of the insensitive one.
    import re

    def fold(targets):
        return {re.sub(r"@\d+$", "", t) for t in targets}

    for name, targets in baseline.pts.items():
        obj = baseline.objects.get(name)
        if obj is not None and obj.is_global and "@" not in name \
                and "$" not in name:
            assert fold(sensitive.points_to(name)) <= targets, name


def test_transform_pipeline_through_files(benchmark, report, tmp_path):
    """File -> transform -> file -> analyze, the paper's exact workflow."""
    from repro.cla.transform import transform_file

    image = image_for(PROFILE)
    in_path = str(tmp_path / "in.cla")
    out_path = str(tmp_path / "out.cla")
    ObjectFileWriter(MemoryStore(image), linked=True).write(in_path)

    def run():
        return transform_file(
            in_path, out_path,
            [OfflineVariableSubstitution(), ContextSensitivity()],
        )

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    result = PreTransitiveSolver(absorb_object_files([out_path])).solve()
    assert result.points_to_relations() > 0
    report.append(
        f"[transform] file pipeline on {PROFILE}: "
        f"{len(out.assignments)} assignments after OVS+CS"
    )
