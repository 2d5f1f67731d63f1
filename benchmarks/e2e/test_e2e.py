"""Self-test of the end-to-end benchmark, at the tiny ``--quick`` sizes.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
LAYERS = ("cfront", "ir", "cla", "solvers", "serve", "depend")
SEED = 3


def run(tmp_path, workload: str, trace: int, root: str = ROOT):
    out = tmp_path / f"{workload}-{trace}.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "benchmarks", "e2e", "run.py"),
         "--quick", "--workload", workload, "--seed", str(SEED),
         "--trace", str(trace), "--out", str(out)],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    return proc, out


def result(tmp_path, workload: str, trace: int):
    proc, out = run(tmp_path, workload, trace)
    assert proc.returncode == 0, proc.stderr
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    (record,) = json.loads(out.read_text())
    return final, record


def units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end(tmp_path, workload):
    final, record = result(tmp_path, workload, 0)
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert {k: m["unit"] for k, m in final["metrics"].items()} == \
        units("end_to_end")
    assert all(m["value"] > 0 for m in final["metrics"].values())
    assert final["correct"] and final["attempted"] > 0
    assert record["failed_ops_frac"] == 0
    for key in ("seed", "commit", "nproc", "python"):
        assert record[key] is not None
    assert all(m["samples"] >= 1 for m in record["metrics"].values())
    _, again = result(tmp_path, workload, 0)
    assert again["digest"] == record["digest"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_and_spans(tmp_path, workload):
    final, record = result(tmp_path, workload, 1)
    assert {k: m["unit"] for k, m in final["metrics"].items()} == \
        units("per_layer")
    assert final["correct"] and record["failed_ops_frac"] == 0
    path = os.path.join(HERE, ".work", f"trace-{workload}-{SEED}.jsonl")
    with open(path, encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    for layer in LAYERS:
        mine = [s for s in spans if s["name"].split(".")[0] == layer]
        assert mine, f"no span for layer {layer}"
        assert all(s["self"] >= 0 for s in mine)


def test_fails_without_the_program(tmp_path):
    """Given only BENCHMARK.json and the benchmark's own files, the run
    exits non-zero and prints no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc, _ = run(tmp_path, WORKLOADS[0], 0, root=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
