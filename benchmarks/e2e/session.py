"""Run one workload of the end-to-end benchmark in this process.

``run.py`` starts this script for each workload and reads the one JSON
line it prints.  The harness calls only public entry points of each
layer and times those calls from outside, in seconds on a reference
host (``Clock``); with ``--trace 1`` it records
a span around every call (``trace.py``) and reports per-layer metrics
instead of end-to-end ones.  With ``--probe`` it only starts the daemon
and edits it, and reports the start time and the process's memory.

    python3 benchmarks/e2e/session.py --workload serve-mixed --seed 0 \\
        --seconds 30 --trace 0 --work benchmarks/e2e/.work/manual
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Iterator

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")
sys.path.insert(0, SRC)

import repro  # noqa: E402
from repro.cfront import (  # noqa: E402
    Preprocessor, SourceFile, parse_tokens, tokenize,
)
from repro.checker import check_result  # noqa: E402
from repro.cla.linker import link_object_files  # noqa: E402
from repro.cla.reader import DatabaseStore  # noqa: E402
from repro.cla.store import simple_name_of  # noqa: E402
from repro.cla.writer import write_unit  # noqa: E402
from repro.driver.incremental import Workspace  # noqa: E402
from repro.engine.pipeline import (  # noqa: E402
    CompileOptions, Pipeline, compile_source,
)
from repro.ir.lower import lower_translation_unit  # noqa: E402
from repro.ir.objects import ObjectKind  # noqa: E402
from repro.serve import ServeSession  # noqa: E402
from repro.solvers import PreTransitiveSolver  # noqa: E402
from repro.synth import generate  # noqa: E402
from trace import Recorder  # noqa: E402  (benchmarks/e2e/trace.py)
from workloads import WORKLOADS, Workload, quick  # noqa: E402

if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
    raise ImportError(f"repro was imported from {repro.__file__}, not {SRC}")

#: rounds every run completes, however soon ``--seconds`` runs out
MIN_ROUNDS = 4
#: closed-loop reads before each edit: 90% points-to, 9% alias, 1% chain
READS_PER_EDIT = 500
ALIAS_SHARE, CHAIN_SHARE = 0.09, 0.01
#: skew of the Zipf-ranked half of the points-to reads (an assumption:
#: a few names are asked about often, as in an editor session)
ZIPF_S = 1.1
#: edits a probe applies before it reads its memory high-water mark: one
#: grow and one shrink, so the update path's peak is in it
PROBE_EDITS = 2
#: stop starting new operations after this long, to stay inside the
#: launcher's time limit on a slow machine
DEADLINE_S = 120.0
PINNED = os.path.join(HERE, "digests.json")
#: iterations of the reference loop, and the seconds it takes on the
#: reference host (see Clock and README.md, "Host speed")
REFERENCE_ITERATIONS = 8000
REFERENCE_S = 0.004
_REFERENCE_WORDS = [f"name{i}" for i in range(256)]
#: every time the reference loop took in this process, for the run record
REFERENCE_TIMES: list[float] = []


def _no_span(_name):
    return nullcontext()


def reference_loop() -> float:
    """Seconds one run of a fixed piece of pure-Python work takes now:
    dict, string and integer operations, as in the program itself.  It
    allocates nothing the garbage collector tracks."""
    words = _REFERENCE_WORDS
    table: dict[str, int] = {}
    acc = 0
    started = time.perf_counter()
    for i in range(REFERENCE_ITERATIONS):
        word = words[i & 255]
        mask = table.get(word, 0) | (1 << (i % 61))
        table[word] = mask
        acc += (mask & (i * 2654435761)).bit_count() + word.count("1")
    seconds = time.perf_counter() - started
    REFERENCE_TIMES.append(seconds)
    return seconds


class Clock:
    """Times stretches of work in seconds on the reference host.

    The host is shared, and how fast it runs this process changes by
    tens of percent within seconds.  So a reference loop runs, untimed,
    before and after every stretch, and the stretch's time is scaled by
    REFERENCE_S over the mean of the two loops' times.  Stretches are
    kept short (one unit's compile, one request) so that the loops
    around each one see the speed it ran at."""

    def __init__(self, span=_no_span):
        self.span = span
        #: sum of the stretches, on the reference host
        self.seconds = 0.0
        self.before = self._reference()

    def _reference(self) -> float:
        with self.span("reference"):
            return reference_loop()

    def lap(self) -> float:
        """End the stretch begun at the last reference loop: run the next
        loop and return the factor for the stretch's measured seconds."""
        after = self._reference()
        factor = 2 * REFERENCE_S / (self.before + after)
        self.before = after
        return factor

    @contextmanager
    def stretch(self) -> Iterator[None]:
        """Time the body as one stretch and add it to ``seconds``."""
        started = time.perf_counter()
        yield
        elapsed = time.perf_counter() - started
        self.seconds += elapsed * self.lap()


@dataclass
class Corpus:
    headers: dict[str, str]
    sources: dict[str, str]
    loc: int
    #: the unit every edit goes to: the median-sized one, so that which
    #: unit an edit lands on does not vary with the number of rounds
    edited: str


def generate_corpus(workload: Workload, seed: int) -> Corpus:
    headers: dict[str, str] = {}
    sources: dict[str, str] = {}
    loc = 0
    for k in range(workload.chunks):
        program = generate(
            workload.profile, scale=workload.scale, seed=seed + k,
            name_prefix=f"u{k}_" if workload.chunks > 1 else "",
        )
        headers[program.header_name] = program.header
        sources.update(program.files)
        loc += program.source_lines()
    by_size = sorted(sources, key=lambda f: (len(sources[f]), f))
    return Corpus(headers, sources, loc, by_size[len(by_size) // 2])


def digest(result) -> str:
    """sha256 of the points-to map without compiler temporaries, whose
    names depend on lowering order."""
    h = hashlib.sha256()
    for name in sorted(result.pts):
        obj = result.objects.get(name)
        if obj is not None and obj.kind is ObjectKind.TEMP:
            continue
        targets = result.points_to(name)
        if targets:
            h.update(name.encode())
            for target in sorted(targets):
                h.update(b"\0" + target.encode())
            h.update(b"\n")
    return h.hexdigest()


def edit(corpus: Corpus, n: int) -> tuple[str, str, bool]:
    """Edit ``n`` as (file, new text, grows), as a developer working on
    one file: even edits append a self-contained static chunk, new each
    time, to the edited unit; odd ones take it out again."""
    text = corpus.sources[corpus.edited]
    grow = n % 2 == 0
    if grow:
        text += (f"\nstatic int e2e_x{n}; static int *e2e_p{n};\n"
                 f"static void e2e_f{n}(void) {{ e2e_p{n} = &e2e_x{n}; }}\n")
    return corpus.edited, text, grow


def start_daemon(workload: Workload, seed: int, work: str):
    """Set-up as a user pays it: generate the code base, build a
    workspace in one process and start the daemon, which links and
    solves.  Returns the corpus, workspace, session and the seconds taken
    on the reference host."""
    clock = Clock()
    with clock.stretch():
        corpus = generate_corpus(workload, seed)
    with clock.stretch():
        workspace = Workspace(cache_dir=tempfile.mkdtemp(dir=work))
        for name, text in corpus.headers.items():
            workspace.add_header(name, text)
        for name, text in corpus.sources.items():
            workspace.add_source(name, text)
        workspace.build(jobs=1)
    with clock.stretch():
        session = ServeSession(workspace=workspace)
    return corpus, workspace, session, clock.seconds


def probe(workload: Workload, seed: int, work: str) -> dict:
    """Start the daemon in this fresh process, edit it and read the
    process's memory high-water mark, which then holds the daemon and
    nothing of the harness's reference solves or oracle runs."""
    corpus, _workspace, session, seconds = start_daemon(workload, seed, work)
    errors = []
    try:
        for n in range(PROBE_EDITS):
            filename, text, _grow = edit(corpus, n)
            response = session.request("update",
                                       {"file": filename, "text": text})
            if not response["ok"]:
                errors.append(f"probe edit {n}: update failed: {response}")
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        session.close()
    return {"setup_s": seconds, "rss_mb": rss_mb, "attempted": PROBE_EDITS,
            "failed": len(errors), "errors": errors}


def _settle() -> None:
    """Collect garbage before a timed call, untimed.  The harness's
    reference solves and answer checks leave much garbage behind; without
    this, whichever timed call set off the next full collection would pay
    for it (on serve-mixed, grow updates then took 200-330 ms instead of
    180-200 ms)."""
    gc.collect()


def _quantile(values, q: float):
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Reference:
    """A cold solve of the serving database: the answer key for one
    generation of the daemon."""

    def __init__(self, path: str):
        pipeline = Pipeline()
        self.store = pipeline.open_database(path)
        self.result = pipeline.analyze(self.store)

    def close(self) -> None:
        self.store.close()

    def _resolve(self, name: str) -> list[str]:
        names = [name] if name in self.result.pts else []
        names += [c for c in self.store.find_targets(name) if c != name]
        return names

    def answer(self, op: str, params: dict) -> dict:
        pts = self.result.points_to
        if op == "points-to":
            name = params["name"]
            resolved = self._resolve(name)
            return {"name": name, "resolved": resolved,
                    "points_to": {n: sorted(pts(n)) for n in resolved}}
        a, b = params["a"], params["b"]
        resolved_a, resolved_b = self._resolve(a), self._resolve(b)
        witness: set[str] = set()
        for na in resolved_a:
            for nb in resolved_b:
                witness |= pts(na) & pts(nb)
        return {"a": a, "b": b, "resolved_a": resolved_a,
                "resolved_b": resolved_b, "may_alias": bool(witness),
                "witness": sorted(witness)}


class Run:
    def __init__(self, name: str, workload: Workload, seed: int,
                 seconds: float, traced: bool, work: str,
                 pin: str | None):
        self.started = time.perf_counter()
        self.name = name
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.rec = Recorder() if traced else None
        self.work = work
        self.pin = pin
        self.rng = random.Random(seed)
        self.samples: dict[str, list[float]] = {}
        self.metrics: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.deadline = self.started + DEADLINE_S
        self.build_dirs: list[str] = []

    # -- bookkeeping ---------------------------------------------------------

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def check(self, ok: bool, what: str) -> None:
        """Count one operation, failed when its correctness check is."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)

    def metric(self, name: str, value: float, unit: str, samples: int):
        self.metrics[name] = {"value": value, "unit": unit,
                              "samples": samples}

    def span(self, traced: bool):
        return self.rec.span if traced else _no_span

    # -- set-up: start the daemon, solve the answer key ---------------------

    def setup(self) -> None:
        self.corpus, self.workspace, self.session, self.setup_s = \
            start_daemon(self.workload, self.seed, self.work)
        self.reference = Reference(self.workspace.build())
        self.digest = digest(self.reference.result)
        self._read_pool(self.reference)

    def _read_pool(self, ref: Reference) -> None:
        result = ref.result
        pointers = sorted(
            n for n in result.pts
            if result.points_to(n) and getattr(
                result.objects.get(n), "kind", None) is not ObjectKind.TEMP
        )
        # Reads ask about every pointer of the program; the seeded
        # shuffle sets the Zipf ranks.
        self.pool = self.rng.sample(pointers, len(pointers))
        self.zipf_cum = list(itertools.accumulate(
            1.0 / (rank + 1) ** ZIPF_S for rank in range(len(self.pool))))
        targets = sorted({
            simple_name_of(n) for n in pointers
            if ref.store.find_targets(simple_name_of(n))
        })
        # Chains walk the targets in a seeded order: a run asks about as
        # many different targets as it sends chains, and its chain
        # percentile depends less on which targets chance picked.
        self.chain_order = self.rng.sample(targets, len(targets))
        self.chains_sent = 0

    # -- cold build: C source to a solved fixpoint -------------------------

    def _compile(self, filename: str, text: str, options: CompileOptions,
                 traced: bool):
        if not traced:
            return compile_source(text, filename=filename, options=options)
        rec = self.rec
        with rec.span("cfront.preprocess"):
            tokens = Preprocessor(
                resolver=options.resolver(), predefined=options.predefined,
                tolerant=options.tolerant,
            ).preprocess(SourceFile(filename, text))
        with rec.span("cfront.parse"):
            unit = parse_tokens(tokens, filename, tolerant=options.tolerant)
        with rec.span("ir.lower"):
            ir = lower_translation_unit(
                unit, field_based=options.field_based,
                track_strings=options.track_strings, source_text=text,
                struct_model=options.struct_model,
                heap_model=options.heap_model,
            )
        self._tokens += len(tokens)
        self._assignments += len(ir.assignments)
        return ir

    def build(self, n: int) -> None:
        # A traced run alternates traced and plain builds; the gap between
        # their medians is the tracing overhead.
        traced = self.rec is not None and n % 2 == 0
        span = self.span(traced)
        out = tempfile.mkdtemp(dir=self.work)
        self.build_dirs.append(out)
        options = CompileOptions()
        options.virtual_files.update(self.corpus.headers)
        self._tokens = self._assignments = 0
        objects = []
        _settle()
        with span("build"):
            # One stretch per unit: a build lasts about a second, longer
            # than the host keeps one speed.
            clock = Clock(span)
            for filename in sorted(self.corpus.sources):
                path = os.path.join(out, f"{len(objects)}.o")
                with clock.stretch(), span("unit"):
                    unit = self._compile(filename, self.corpus.sources[filename],
                                         options, traced)
                    with span("cla.write"):
                        write_unit(unit, path)
                objects.append(path)
            database = os.path.join(out, "program.cla")
            with clock.stretch(), span("cla.link"):
                link_object_files(objects, database)
            with clock.stretch():
                with span("cla.open"):
                    store = DatabaseStore.open(database)
                with span("solvers.solve"):
                    result = PreTransitiveSolver(store).solve()
        self.sample("build_traced" if traced else "build", clock.seconds)
        self.database = database
        try:
            self.check(digest(result) == self.digest,
                       f"build {n}: fixpoint differs from the reference")
            if n == 0:
                report = check_result(store, result, check_minimal=True)
                self.check(report.ok, f"build 0: oracle: {report.render()}")
        finally:
            store.close()
        if traced:
            self.sample("tokens", self._tokens)
            self.sample("assignments", self._assignments)
            self.sample("object_bytes", sum(map(os.path.getsize, objects)))
            self.sample("database_bytes", os.path.getsize(database))
            with self.rec.span("cfront.lex"):
                for filename, text in self.corpus.sources.items():
                    tokenize(SourceFile(filename, text))
        # Keep only the newest database, for the analyze passes.
        while len(self.build_dirs) > 1:
            shutil.rmtree(self.build_dirs.pop(0))

    # -- analyze pass: open + solve the linked database -------------------

    def analyze(self) -> None:
        traced = self.rec is not None
        span = self.span(traced)
        _settle()
        clock = Clock()
        with clock.stretch(), span("analyze"):
            with span("cla.open"):
                store = DatabaseStore.open(self.database)
            with span("solvers.solve"):
                result = PreTransitiveSolver(store).solve()
        self.sample("analyze", clock.seconds)
        try:
            if traced:
                self._analyze_layers(store, result)
            self.check(digest(result) == self.digest,
                       "analyze: fixpoint differs from the reference")
        finally:
            store.close()

    def _analyze_layers(self, store, result) -> None:
        stats = result.stats
        self.sample("loaded_fraction",
                    store.stats.loaded / store.stats.in_file)
        self.sample("relations", result.points_to_relations())
        self.sample("edges_added", stats.edges_added)
        self.sample("nodes_visited", stats.nodes_visited)
        lookups = stats.cache_hits + stats.cache_misses
        self.sample("solver_cache_hit_ratio",
                    stats.cache_hits / lookups if lookups else 0.0)
        # Decoding runs before digest() fills the universe's decode cache.
        with self.rec.span("solvers.decode"):
            for name in result.pts:
                result.points_to(name)
        fresh = DatabaseStore.open(self.database)
        try:
            with self.rec.span("cla.load_all"):
                fresh.fetch_statics()
                for name in list(fresh.block_names()):
                    fresh.fetch_block(name)
        finally:
            fresh.close()

    # -- serve traffic: closed-loop reads, then one edit -------------------

    def _reads(self, count: int) -> list[tuple[str, dict]]:
        rng = self.rng
        chains = max(1, round(count * CHAIN_SHARE))
        aliases = max(1, round(count * ALIAS_SHARE))
        points = count - chains - aliases
        names = rng.choices(self.pool, cum_weights=self.zipf_cum,
                            k=points // 2)
        names += [rng.choice(self.pool) for _ in range(points - points // 2)]
        ops = [("points-to", {"name": name}) for name in names]
        ops += [("alias", {"a": rng.choice(self.pool),
                           "b": rng.choice(self.pool)})
                for _ in range(aliases)]
        # Distinct targets: a repeated chain would be a cache hit, which
        # the points-to and alias reads already measure.
        order = self.chain_order
        for _ in range(min(chains, len(order))):
            ops.append(("chain",
                        {"target": order[self.chains_sent % len(order)]}))
            self.chains_sent += 1
        rng.shuffle(ops)
        return ops

    def serve(self, n: int) -> None:
        """One batch of reads, then edit ``n``."""
        rec, session = self.rec, self.session
        # (op, params, response, seconds on the reference host)
        answered: list[tuple[str, dict, dict, float]] = []
        # reads since the last reference loop, with measured seconds
        stretch: list[tuple[str, dict, dict, float]] = []
        reads = self._reads(READS_PER_EDIT)
        _settle()
        clock = Clock()

        def lap() -> None:
            factor = clock.lap()
            answered.extend((op, params, response, seconds * factor)
                            for op, params, response, seconds in stretch)
            stretch.clear()

        for op, params in reads:
            # A chain takes as long as a hundred other reads: it gets a
            # stretch of its own.
            if op == "chain":
                lap()
            started = time.perf_counter()
            response = session.request(op, params)
            ended = time.perf_counter()
            stretch.append((op, params, response, ended - started))
            if op == "chain":
                lap()
            if rec is not None:
                rec.add("depend.chain" if op == "chain" else f"serve.{op}",
                        started, ended)
                self.sample("serve_cache_hit", response["cache_hit"])
        lap()
        for op, _params, response, seconds in answered:
            if op == "chain":
                self.sample("chain", seconds)
            else:
                self.sample("query", seconds)
                if not response["cache_hit"]:
                    self.sample("query_miss", seconds)
        ref = self.reference
        for op, params, response, _seconds in answered:
            ok = response["ok"] and (
                op == "chain" or response["result"] == ref.answer(op, params)
            )
            self.check(ok, f"edit {n}: {op} {params} answered wrongly")
        filename, text, grow = edit(self.corpus, n)
        _settle()
        clock = Clock()
        started = time.perf_counter()
        response = session.request("update", {"file": filename, "text": text})
        ended = time.perf_counter()
        self.sample("grow" if grow else "shrink",
                    (ended - started) * clock.lap())
        self.check(response["ok"], f"edit {n}: update failed: {response}")
        if rec is not None and response["ok"]:
            rec.add("serve.update", started, ended)
            self.sample("update_compiled", response["result"]["compiled"])
        self.reference.close()
        self.reference = Reference(self.workspace.build())

    # -- the whole run -------------------------------------------------------

    def round(self, n: int) -> None:
        self.build(n)
        for _ in range(self.workload.passes):
            self.analyze()
        edits = self.workload.edits
        for k in range(edits):
            self.serve(edits * n + k)

    def run(self) -> dict:
        self.setup()
        try:
            # A new round starts only if one as long as the last still
            # ends within --seconds of the start of this process's work.
            n, last = 0, 0.0
            while True:
                now = time.perf_counter()
                if n >= MIN_ROUNDS and (now + last > self.started + self.seconds
                                        or now > self.deadline):
                    break
                self.round(n)
                last = time.perf_counter() - now
                n += 1
            report = check_result(self.reference.store, self.reference.result,
                                  check_minimal=True)
            self.check(report.ok, f"final generation: {report.render()}")
        finally:
            self.reference.close()
            self.session.close()
        if self.pin:
            self.check(self.digest == self.pin,
                       f"digest {self.digest} differs from the pinned {self.pin}")
        if self.rec is not None:
            self._layer_metrics()
        else:
            self._end_to_end_metrics()
        return {
            "workload": self.name,
            "seed": self.seed,
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "digest": self.digest,
            "loc": self.corpus.loc,
            "setup_s": self.setup_s,
            "reference_loop_s": statistics.median(REFERENCE_TIMES),
            "metrics": self.metrics,
            "errors": self.errors,
        }

    def _end_to_end_metrics(self) -> None:
        s, loc = self.samples, self.corpus.loc
        median = statistics.median
        self.metric("build_kloc_per_s", loc / 1e3 / median(s["build"]),
                    "kLoC/s", len(s["build"]))
        self.metric("analyze_mloc_per_s", loc / 1e6 / median(s["analyze"]),
                    "MLoC/s", len(s["analyze"]))
        self.metric("query_p50_us", median(s["query"]) * 1e6, "us",
                    len(s["query"]))
        self.metric("query_p90_us", _quantile(s["query"], 0.90) * 1e6, "us",
                    len(s["query"]))
        self.metric("query_miss_p50_us", median(s["query_miss"]) * 1e6, "us",
                    len(s["query_miss"]))
        self.metric("chain_p75_ms", _quantile(s["chain"], 0.75) * 1e3, "ms",
                    len(s["chain"]))
        self.metric("grow_update_p50_ms", median(s["grow"]) * 1e3, "ms",
                    len(s["grow"]))
        self.metric("shrink_update_p50_ms", median(s["shrink"]) * 1e3, "ms",
                    len(s["shrink"]))

    def _layer_metrics(self) -> None:
        rec, s = self.rec, self.samples
        selfs = rec.self_times()
        # Per operation (trace id): self seconds of each span name.
        per_op: dict[str, dict[str, float]] = {}
        durations: dict[str, list[float]] = {}
        for span in rec.spans:
            op = per_op.setdefault(span.trace, {})
            op[span.name] = op.get(span.name, 0.0) + selfs[span.id]
            if span.parent is None:
                durations.setdefault(span.name, []).append(span.seconds)
        # A build's own time leaves out its reference loops.
        builds = [(per_op[sp.trace],
                   sp.seconds - per_op[sp.trace].get("reference", 0.0))
                  for sp in rec.spans if sp.name == "build" and sp.parent is None]
        passes = [per_op[sp.trace] for sp in rec.spans
                  if sp.name == "analyze" and sp.parent is None]

        def per_build(*names):
            return [sum(op.get(n, 0.0) for n in names) for op, _ in builds]

        def share(*names):
            return statistics.median([sum(op.get(n, 0.0) for n in names) / total
                                      for op, total in builds])

        def put(name, values, unit, scale=1.0):
            self.metric(name, statistics.median(values) * scale, unit,
                        len(values))

        front = per_build("cfront.preprocess", "cfront.parse")
        put("cfront.preprocess_s", per_build("cfront.preprocess"), "s")
        put("cfront.lex_s", durations["cfront.lex"], "s")
        put("cfront.parse_s", per_build("cfront.parse"), "s")
        put("cfront.tokens", s["tokens"], "count")
        put("cfront.tokens_per_s",
            [t / f for t, f in zip(s["tokens"], front)], "1/s")
        put("ir.lower_s", per_build("ir.lower"), "s")
        put("ir.assignments", s["assignments"], "count")
        put("cla.write_s", per_build("cla.write"), "s")
        put("cla.object_bytes", s["object_bytes"], "bytes")
        put("cla.link_s", per_build("cla.link"), "s")
        put("cla.database_bytes", s["database_bytes"], "bytes")
        put("cla.open_s", [op["cla.open"] for op in passes], "s")
        put("cla.load_all_s", durations["cla.load_all"], "s")
        put("cla.loaded_fraction", s["loaded_fraction"], "ratio")
        put("solvers.solve_s", [op["solvers.solve"] for op in passes], "s")
        put("solvers.relations", s["relations"], "count")
        put("solvers.edges_added", s["edges_added"], "count")
        put("solvers.nodes_visited", s["nodes_visited"], "count")
        put("solvers.cache_hit_ratio", s["solver_cache_hit_ratio"], "ratio")
        put("solvers.decode_s", durations["solvers.decode"], "s")
        put("serve.points_to_us", durations["serve.points-to"], "us", 1e6)
        put("serve.alias_us", durations["serve.alias"], "us", 1e6)
        hits = s["serve_cache_hit"]
        self.metric("serve.cache_hit_ratio", sum(hits) / len(hits), "ratio",
                    len(hits))
        compiled = s["update_compiled"]
        self.metric("serve.update_compiled", statistics.fmean(compiled),
                    "count", len(compiled))
        put("depend.chain_ms", durations["depend.chain"], "ms", 1e3)
        self.metric("share.cfront", share("cfront.preprocess", "cfront.parse"),
                    "ratio", len(builds))
        self.metric("share.ir", share("ir.lower"), "ratio", len(builds))
        self.metric("share.cla", share("cla.write", "cla.link", "cla.open"),
                    "ratio", len(builds))
        self.metric("share.solvers", share("solvers.solve"), "ratio",
                    len(builds))
        self.metric("trace_overhead_frac",
                    statistics.median(s["build_traced"])
                    / statistics.median(s["build"]) - 1.0,
                    "ratio", len(s["build_traced"]) + len(s["build"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="wall time after which no new round starts")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True,
                        help="scratch directory; the caller removes it")
    parser.add_argument("--trace-out", help="JSONL file for the spans")
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs, for the self-test")
    parser.add_argument("--probe", action="store_true",
                        help="only start the daemon and edit it")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.quick:
        workload = quick(workload)
    if args.probe:
        result = probe(workload, args.seed, args.work)
        for error in result["errors"]:
            print(f"check failed: {error}", file=sys.stderr)
        print(json.dumps(result))
        return 0
    pin = None
    if not args.quick:
        with open(PINNED, encoding="utf-8") as fh:
            pinned = json.load(fh)
        if args.seed == pinned["seed"]:
            pin = pinned["digests"].get(args.workload)
    run = Run(args.workload, workload, args.seed, args.seconds,
              bool(args.trace), args.work, pin)
    result = run.run()
    if args.trace_out and run.rec is not None:
        run.rec.write_jsonl(args.trace_out)
    for error in result["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
