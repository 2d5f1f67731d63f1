"""Forward data-dependence analysis — the paper's motivating application (§2).

Finds all objects that can receive values from a *target* object, with
strong/weak operation strength classification (Table 1), best dependence
chains (most important, then shortest), prioritisation, and user-specified
*non-targets* that cut propagation.
"""

from .callgraph import CallGraph, build_call_graph
from .analysis import DependenceAnalysis, DependenceResult, Dependent
from .chains import render_all, render_chain, summarize
from .graph import DependenceEdge, DependenceGraph
from .report import (
    dependence_tree,
    priority_buckets,
    render_tree,
    summary_line,
    to_csv,
    to_json,
)

__all__ = [
    "CallGraph", "build_call_graph",
    "DependenceAnalysis", "DependenceResult", "Dependent",
    "render_all", "render_chain", "summarize",
    "DependenceEdge", "DependenceGraph",
    "dependence_tree", "priority_buckets", "render_tree", "summary_line",
    "to_csv", "to_json",
]
