"""Chain answers do not depend on the process that computes them.

Two chains to one dependent can tie on (strength, distance); the search
keeps the one it relaxed first, and the dependence graph yields edges in
a fixed order (``repro.depend.graph``).  So the same ``chain`` requests
must render the same chains under any ``PYTHONHASHSEED``, and from a
workspace-mode daemon and a database-mode daemon alike.  The emacs
profile at scale 0.01, seed 1, has such ties.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cla.store import simple_name_of
from repro.serve import ServeSession
from repro.synth import generate

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(scope="module")
def program():
    return generate("emacs", scale=0.01, seed=1)


@pytest.fixture(scope="module")
def chains(program) -> list[dict]:
    """One chain request per source-level name, every chain rendered."""
    store = program.project().store()
    names = sorted({simple_name_of(n) for n in store.object_names()
                    if not n.startswith("$")})
    return [{"op": "chain", "params": {"target": name, "limit": 10_000},
             "id": i} for i, name in enumerate(names, 1)]


def serve(directory: Path, files: list[str], requests: list[dict],
          hash_seed: int) -> list[dict]:
    """The daemon's responses to ``requests`` under ``hash_seed``, less
    their timings."""
    lines = [json.dumps(r) for r in requests + [{"op": "shutdown"}]]
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.driver.cli", "serve", *files],
        input="\n".join(lines) + "\n", capture_output=True, text=True,
        cwd=directory, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    responses = [json.loads(line) for line in proc.stdout.splitlines()[1:]]
    responses = responses[:len(requests)]
    for response in responses:
        del response["wall_ms"]
    return responses


def test_chains_agree_across_hash_seeds(tmp_path, program, chains):
    program.write_to(str(tmp_path))
    files = sorted(program.files)
    first = serve(tmp_path, files, chains, hash_seed=1)
    assert all(r["ok"] for r in first)
    assert first == serve(tmp_path, files, chains, hash_seed=2)


def test_workspace_and_database_daemons_agree(program, chains):
    workspace = program.project()
    database = workspace.build()
    with ServeSession(workspace=workspace) as linked, \
            ServeSession(database=database) as read:
        for request in chains:
            mine = linked.request("chain", request["params"])
            theirs = read.request("chain", request["params"])
            assert mine["ok"] and theirs["ok"]
            assert mine["result"] == theirs["result"], request
    workspace.close()
