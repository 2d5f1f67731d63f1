"""Tests for the dependence reporting tools (§2's browsing UI, as text)."""

import csv
import io
import json

from repro.cfront import parse_c
from repro.cla.store import MemoryStore
from repro.depend.report import (
    dependence_tree,
    priority_buckets,
    render_tree,
    summary_line,
    to_csv,
    to_json,
)
from repro.engine.pipeline import Pipeline
from repro.ir import lower_translation_unit
from repro.solvers import PreTransitiveSolver

SRC = """
void f(void) {
    short t2, a, b, c, w;
    a = t2;          /* direct */
    b = a + 1;       /* strong via a */
    c = t2 * 2;      /* weak-ish (mult = weak) */
    w = 1;           /* independent */
}
"""


def build():
    store = MemoryStore(
        lower_translation_unit(parse_c(SRC, filename="r.c"))
    )
    points_to = PreTransitiveSolver(store).solve()
    result = Pipeline().depend(store, points_to, "t2")
    return store, result


class TestTree:
    def test_children_map(self):
        _, result = build()
        tree = dependence_tree(result)
        target = result.targets[0]
        kids = {k.rsplit("::")[-1] for k in tree[target]}
        assert kids == {"a", "c"}
        a_node = [k for k in tree[target] if k.endswith("::a")][0]
        assert {k.rsplit("::")[-1] for k in tree[a_node]} == {"b"}

    def test_render_tree_text(self):
        store, result = build()
        text = render_tree(store, result)
        assert "[target]" in text
        assert "a/short" in text
        assert "b/short" in text
        # strength symbols appear on edges
        assert "=" in text and "~" in text

    def test_max_depth(self):
        store, result = build()
        shallow = render_tree(store, result, max_depth=1)
        assert "b/short" not in shallow
        assert "a/short" in shallow

    def test_ordering_strongest_first(self):
        _, result = build()
        tree = dependence_tree(result)
        target = result.targets[0]
        order = [k.rsplit("::")[-1] for k in tree[target]]
        assert order == ["a", "c"]  # direct before weak


class TestBucketsAndSummary:
    def test_buckets(self):
        _, result = build()
        buckets = priority_buckets(result)
        shorts = {k: [n.rsplit("::")[-1] for n in v]
                  for k, v in buckets.items()}
        assert shorts["direct"] == ["a"]
        assert shorts["strong"] == ["b"]
        assert shorts["weak"] == ["c"]

    def test_summary_line(self):
        _, result = build()
        line = summary_line(result)
        assert "3 dependents" in line
        assert "1 direct" in line
        assert "1 strong" in line
        assert "1 weak" in line

    def test_summary_mentions_non_targets(self):
        store = MemoryStore(
            lower_translation_unit(parse_c(SRC, filename="r.c"))
        )
        points_to = PreTransitiveSolver(store).solve()
        a = store.find_targets("a")[0]
        result = Pipeline().depend(store, points_to, "t2", frozenset([a]))
        assert "non-targets applied" in summary_line(result)


class TestExports:
    def test_json_structure(self):
        store, result = build()
        data = json.loads(to_json(store, result))
        assert data["targets"] == result.targets
        names = {r["object"].rsplit("::")[-1] for r in data["dependents"]}
        assert names == {"a", "b", "c"}
        b = [r for r in data["dependents"]
             if r["object"].endswith("::b")][0]
        assert b["strength"] == "STRONG"
        assert b["distance"] == 2
        assert len(b["chain"]) == 3  # b <- a <- t2

    def test_json_chain_locations(self):
        store, result = build()
        data = json.loads(to_json(store, result))
        a = [r for r in data["dependents"]
             if r["object"].endswith("::a")][0]
        assert any(step["location"] and "r.c:" in step["location"]
                   for step in a["chain"])

    def test_csv_rows(self):
        store, result = build()
        rows = list(csv.reader(io.StringIO(to_csv(store, result))))
        header, body = rows[0], rows[1:]
        assert header[0] == "object"
        assert len(body) == 3
        strengths = {row[3] for row in body}
        assert strengths == {"DIRECT", "STRONG", "WEAK"}

    def test_csv_parents(self):
        store, result = build()
        rows = list(csv.reader(io.StringIO(to_csv(store, result))))
        by_name = {row[0].rsplit("::")[-1]: row for row in rows[1:]}
        assert by_name["b"][5].endswith("::a")
