"""A daemon loads only the parts it uses.

The HTTP transport (``repro.serve.http`` and the stdlib HTTP stack under
it) loads when ``make_http_server`` is first looked up or ``repro-cla
serve --http`` runs, the compile worker pool when a build fans out to
more than one process (``repro-cla serve`` compiles in one), and the
fuzzer and shrinker when ``repro.checker`` is asked for them.  A stdio or
library daemon pays for none of them, and a library daemon does not load
the code-base generator either.  Each check runs in a fresh interpreter,
since other tests in this process may already have loaded these modules.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: Modules that only an HTTP daemon, a multi-process build or the fuzzer
#: needs.
OPTIONAL = (
    "repro.serve.http", "http.server", "http.client", "socketserver",
    "ssl", "multiprocessing", "concurrent.futures.process",
    "repro.checker.fuzz", "repro.checker.shrink",
)
#: The code-base generator: the CLI loads it for its paper tables
#: (driver/tables.py); a library daemon never does.
SYNTH = "repro.synth"

A_C = "int x, *p; void f(void) { p = &x; }\n"
B_C = ("extern int *p; int *q; short tgt, out;\n"
       "void g(void) { q = p; out = tgt; }\n")
B_GROWN = ("extern int *p; int *q, *r; short tgt, out;\n"
           "void g(void) { q = p; r = q; out = tgt; }\n")

#: Prints, as its last stdout line, the optional modules then loaded.
REPORT = (
    "import json, sys\n"
    f"print(json.dumps(sorted(m for m in {(*OPTIONAL, SYNTH)!r}\n"
    "                         if m in sys.modules)))\n"
)

LIBRARY_DAEMON = f"""
import tempfile
from repro.driver.incremental import Workspace
from repro.serve import ServeSession

with tempfile.TemporaryDirectory() as cache:
    workspace = Workspace(cache_dir=cache)
    workspace.add_source("a.c", {A_C!r})
    workspace.add_source("b.c", {B_C!r})
    session = ServeSession(workspace=workspace)
    answers = [
        session.request("points-to", {{"name": "q"}}),
        session.request("chain", {{"target": "tgt"}}),
        session.request("update", {{"file": "b.c", "text": {B_GROWN!r}}}),
        session.request("points-to", {{"name": "r"}}),
    ]
    session.close()
    workspace.close()
assert all(a["ok"] for a in answers), answers
assert answers[0]["result"]["points_to"] == {{"q": ["x"]}}, answers[0]
assert answers[1]["result"]["dependents"] >= 1, answers[1]
assert answers[3]["result"]["points_to"] == {{"r": ["x"]}}, answers[3]
""" + REPORT

STDIO_DAEMON = """
import sys
from repro.driver.cli import main

rc = main(["serve", *sys.argv[1:]])
assert rc == 0, rc
""" + REPORT


def run(code: str, *args: str, stdin: str = "", cwd=None) -> list[str]:
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], input=stdin,
        capture_output=True, text=True, cwd=cwd, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


class TestDaemonFootprint:
    def test_library_daemon(self):
        lines = run(LIBRARY_DAEMON)
        assert json.loads(lines[-1]) == []

    def test_stdio_daemon(self, tmp_path):
        (tmp_path / "a.c").write_text(A_C)
        requests = [
            {"op": "points-to", "params": {"name": "p"}, "id": 1},
            {"op": "chain", "params": {"target": "x"}, "id": 2},
            {"op": "shutdown", "id": 3},
        ]
        lines = run(STDIO_DAEMON, "a.c", cwd=tmp_path,
                    stdin="".join(json.dumps(r) + "\n" for r in requests))
        responses = [json.loads(line) for line in lines[1:-1]]
        assert [r["ok"] for r in responses] == [True, True, True]
        assert responses[0]["result"]["points_to"] == {"p": ["x"]}
        assert set(json.loads(lines[-1])) <= {SYNTH}

    def test_stdio_daemon_over_two_sources(self, tmp_path):
        (tmp_path / "a.c").write_text(A_C)
        (tmp_path / "b.c").write_text(B_C)
        requests = [
            {"op": "points-to", "params": {"name": "q"}, "id": 1},
            {"op": "update", "params": {"file": "b.c", "text": B_GROWN},
             "id": 2},
            {"op": "points-to", "params": {"name": "r"}, "id": 3},
            {"op": "shutdown", "id": 4},
        ]
        lines = run(STDIO_DAEMON, "a.c", "b.c", cwd=tmp_path,
                    stdin="".join(json.dumps(r) + "\n" for r in requests))
        responses = [json.loads(line) for line in lines[1:-1]]
        assert [r["ok"] for r in responses] == [True] * 4
        assert responses[0]["result"]["points_to"] == {"q": ["x"]}
        assert responses[2]["result"]["points_to"] == {"r": ["x"]}
        assert set(json.loads(lines[-1])) <= {SYNTH}

    def test_http_lookup_loads_the_transport(self):
        lines = run("from repro.serve import make_http_server\n" + REPORT)
        assert "repro.serve.http" in json.loads(lines[-1])
