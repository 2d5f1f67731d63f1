"""End-to-end benchmark: from C source to answers, one workload per process.

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--out F] [--quick]

Each workload runs in subprocesses of its own (``session.py``), one at a
time, single-threaded: daemon probes, which give ``setup_s`` and
``peak_rss_mb``, before and after the main session, which gives the rest.
One workload's run takes about ``--seconds`` of wall time, set-up and
checks included.  Every metric is printed as ``workload metric value unit
n=<samples>``; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--out`` writes the full run
records, with provenance and per-metric sample counts, as JSON.  With
``--trace`` the per-layer metrics replace the end-to-end ones and the
spans land in ``benchmarks/e2e/.work/trace-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORK = os.path.join(HERE, ".work")
#: a workload that has not answered by then is killed and the run fails
TIMEOUT_S = 170
#: wall time of one workload's run: BENCHMARK.json's run_seconds
DEFAULT_SECONDS = 40
QUICK_SECONDS = 1
#: daemon starts in fresh processes, half before and half after the main
#: session; setup_s is the median of these and the main session's start
PROBES = 4


def git_commit(root: str) -> str:
    """The checked-out commit, read from ``.git`` without running git (a
    source export has no ``.git`` and reports ``unknown``)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def worker(name: str, args, extra: list[str], kill_at: float) -> dict:
    """Run ``session.py`` once and return the JSON line it prints."""
    work = tempfile.mkdtemp(dir=WORK)
    cmd = [sys.executable, os.path.join(HERE, "session.py"),
           "--workload", name, "--seed", str(args.seed), "--work", work,
           *extra]
    if args.quick:
        cmd.append("--quick")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, kill_at - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{name}: no result within {TIMEOUT_S} s") from None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise SystemExit(f"{name}: worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, args) -> dict:
    started = time.perf_counter()
    kill_at = started + TIMEOUT_S
    probes = [] if args.trace else [
        worker(name, args, ["--probe"], kill_at) for _ in range(PROBES // 2)]
    # The probes still to come take about as long as those just run.
    budget = args.seconds - 2 * (time.perf_counter() - started)
    extra = ["--seconds", f"{max(0.0, budget):.3f}",
             "--trace", str(args.trace)]
    if args.trace:
        extra += ["--trace-out",
                  os.path.join(WORK, f"trace-{name}-{args.seed}.jsonl")]
    record = worker(name, args, extra, kill_at)
    if args.trace:
        return record
    probes += [worker(name, args, ["--probe"], kill_at)
               for _ in range(PROBES - PROBES // 2)]
    setup = [p["setup_s"] for p in probes] + [record["setup_s"]]
    rss = [p["rss_mb"] for p in probes]
    record["metrics"]["setup_s"] = {
        "value": statistics.median(setup), "unit": "s", "samples": len(setup)}
    record["metrics"]["peak_rss_mb"] = {
        "value": statistics.median(rss), "unit": "MB", "samples": len(rss)}
    record["attempted"] += sum(p["attempted"] for p in probes)
    record["failed"] += sum(p["failed"] for p in probes)
    record["errors"] += [e for p in probes for e in p["errors"]]
    record["correct"] = record["failed"] == 0
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="run one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help=f"wall time of one workload's run (default "
                             f"{DEFAULT_SECONDS}, {QUICK_SECONDS} with --quick)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics")
    parser.add_argument("--out", help="write the run records as JSON here")
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs (the self-test)")
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception, so subprocess.run kills and reaps
    # the running workload instead of leaving it orphaned.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else DEFAULT_SECONDS
    os.makedirs(WORK, exist_ok=True)
    provenance = {
        "seed": args.seed, "commit": git_commit(ROOT),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "trace": args.trace, "seconds": args.seconds, "quick": args.quick,
    }
    print("# " + " ".join(f"{k}={v}" for k, v in provenance.items()))
    names = [args.workload] if args.workload else list(WORKLOADS)
    records = []
    for name in names:
        record = {**provenance, **run_workload(name, args)}
        record["failed_ops_frac"] = record["failed"] / record["attempted"]
        records.append(record)
        for metric, m in record["metrics"].items():
            print(f"{name} {metric} {m['value']:.6g} {m['unit']} "
                  f"n={m['samples']}")
        print(f"{name} failed_ops_frac {record['failed_ops_frac']:.6g} ratio "
              f"n={record['attempted']}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=2)
            fh.write("\n")

    def key(record, metric):
        return metric if len(records) == 1 else f"{record['workload']}/{metric}"

    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {
            key(r, metric): {"value": m["value"], "unit": m["unit"]}
            for r in records for metric, m in r["metrics"].items()
        },
    }))
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
