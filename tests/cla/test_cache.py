"""Unit tests for the keep-or-discard BlockCache (paper §4)."""

import dataclasses

import pytest

from repro.cla.cache import BlockCache
from repro.cla.store import MemoryStore
from repro.ir.lower import UnitIR
from repro.ir.primitives import PrimitiveAssignment, PrimitiveKind


def store_with_blocks(
    block_sizes: dict[str, int], statics: int = 1
) -> MemoryStore:
    """A MemoryStore with ``statics`` static assignments and one dynamic
    block per key of ``block_sizes``, of exactly that many assignments."""
    unit = UnitIR(filename="cache_test.c")
    assignments = []
    for i in range(statics):
        assignments.append(PrimitiveAssignment(
            kind=PrimitiveKind.ADDR, dst=f"s{i}", src=f"t{i}"))
    for name, size in block_sizes.items():
        for j in range(size):
            assignments.append(PrimitiveAssignment(
                kind=PrimitiveKind.COPY, dst=f"{name}_d{j}", src=name))
    unit.assignments = assignments
    return MemoryStore(unit)


class TestConstruction:
    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            BlockCache(store_with_blocks({"a": 1}), -1)

    def test_statics_resident_from_the_start(self):
        cache = BlockCache(store_with_blocks({"a": 2}, statics=3), 10)
        assert cache.stats.in_core == 3
        assert cache.stats.loaded == 3
        assert cache.block_allowance == 7

    def test_unbounded_allowance(self):
        cache = BlockCache(store_with_blocks({"a": 2}), None)
        assert cache.block_allowance is None

    def test_budget_below_statics_retains_no_blocks(self):
        cache = BlockCache(store_with_blocks({"a": 1}, statics=3), 0)
        assert cache.block_allowance == 0
        cache.load_block("a")
        assert cache.retained_blocks() == 0
        # The statics are a mandatory resident the budget cannot evict.
        assert cache.stats.in_core == 3


class TestHitsAndMisses:
    def test_first_load_is_miss_then_hits(self):
        cache = BlockCache(store_with_blocks({"a": 2}), None)
        block = cache.load_block("a")
        assert len(block.assignments) == 2
        assert (cache.stats.block_misses, cache.stats.block_hits) == (1, 0)
        assert cache.load_block("a") is block
        assert (cache.stats.block_misses, cache.stats.block_hits) == (1, 1)
        assert cache.stats.loaded == 1 + 2
        assert cache.stats.reloads == 0

    def test_missing_block_negative_cached(self):
        underlying = store_with_blocks({"a": 1})
        cache = BlockCache(underlying, None)
        assert cache.load_block("nope") is None
        assert cache.load_block("nope") is None
        # Neither request counts as a hit, miss, load, or reload.
        assert cache.stats.block_misses == 0
        assert cache.stats.block_hits == 0


class TestEviction:
    def make(self, budget):
        # 1 static + three 2-assignment blocks.
        return BlockCache(
            store_with_blocks({"a": 2, "b": 2, "c": 2}), budget
        )

    def test_lru_eviction_and_reload(self):
        cache = self.make(5)  # allowance 4: room for two blocks
        cache.load_block("a")
        cache.load_block("b")
        assert cache.stats.in_core == 5
        cache.load_block("c")  # evicts a (least recently used)
        assert cache.stats.in_core == 5
        assert cache.stats.block_evictions == 1
        cache.load_block("a")  # evicted: miss + reload (evicts b)
        assert cache.stats.reloads == 2
        assert cache.stats.blocks_reloaded == 1
        assert cache.stats.block_evictions == 2
        assert cache.stats.peak_in_core == 5
        assert cache.stats.loaded == 1 + 6  # coverage counted once

    def test_hit_refreshes_recency(self):
        cache = self.make(5)
        cache.load_block("a")
        cache.load_block("b")
        cache.load_block("a")  # hit: a is now most recently used
        cache.load_block("c")  # evicts b, not a
        assert cache.load_block("a") is not None
        assert cache.stats.reloads == 0  # a stayed resident throughout
        cache.load_block("b")
        assert cache.stats.reloads == 2  # b had to be re-read

    def test_block_larger_than_allowance_served_not_retained(self):
        cache = BlockCache(store_with_blocks({"big": 6, "a": 1}), 4)
        block = cache.load_block("big")
        assert len(block.assignments) == 6
        assert cache.retained_blocks() == 0
        assert cache.stats.in_core == 1  # just the static
        assert cache.stats.block_evictions == 1  # discarded on arrival
        # A retained small block is unaffected by the oversized one.
        cache.load_block("a")
        assert cache.retained_blocks() == 1
        cache.load_block("big")
        assert cache.retained_blocks() == 1
        assert cache.stats.reloads == 6

    def test_in_core_never_exceeds_budget(self):
        budget = 5
        cache = self.make(budget)
        for _ in range(3):
            for name in ("a", "b", "c", "b", "a"):
                cache.load_block(name)
                assert cache.stats.in_core <= budget
        assert cache.stats.peak_in_core <= budget


class TestRestartCounts:
    """Every solve starts with ``restart_counts``: the cache keeps what
    is resident and counts it as loaded, so ``in_core <= loaded``."""

    def test_fresh_cache_unchanged(self):
        cache = BlockCache(store_with_blocks({"a": 2}, statics=3), 10)
        before = dataclasses.asdict(cache.stats)
        cache.restart_counts()
        assert dataclasses.asdict(cache.stats) == before

    def test_resident_blocks_count_as_loaded(self):
        # 1 static + three 2-assignment blocks, room for two blocks.
        cache = BlockCache(store_with_blocks({"a": 2, "b": 2, "c": 2}), 5)
        for name in ("a", "b", "c"):  # a is evicted, b and c stay
            cache.load_block(name)
        cache.restart_counts()
        st = cache.stats
        assert (st.in_core, st.loaded, st.in_file, st.peak_in_core) == \
            (5, 5, 7, 5)
        assert (st.blocks_loaded, st.reloads, st.block_hits,
                st.block_misses, st.block_evictions) == (2, 0, 0, 0, 0)
        cache.load_block("b")  # resident: a hit, nothing loaded
        assert (st.block_hits, st.loaded) == (1, 5)
        cache.load_block("a")  # this solve's first read of a: a load
        assert (st.loaded, st.reloads, st.in_core) == (7, 0, 5)


class TestAdvisoryDiscard:
    def test_discard_report_ignored(self):
        cache = BlockCache(store_with_blocks({"a": 2}), None)
        cache.load_block("a")
        before = cache.stats.in_core
        cache.discard(0)  # the analyzer's report: advisory under a cache
        assert cache.stats.in_core == before


class TestDelegation:
    def test_protocol_surface(self):
        underlying = store_with_blocks({"a": 2})
        cache = BlockCache(underlying, None)
        assert set(cache.block_names()) == {"a"}
        assert cache.fetch_block("a") is underlying.fetch_block("a")
        assert cache.call_sites() == underlying.call_sites()
        assert list(cache.object_names()) == list(underlying.object_names())
        assert cache.get_object("a") is underlying.get_object("a")
        assert cache.find_targets("a") == underlying.find_targets("a")
        assert cache.static_assignments() == underlying.fetch_statics()


class TestReloadCostByBudget:
    """The §4 price of a memory bound, swept over a budget ladder on a
    real database: a solve, then a depend-style pass that re-requests
    every block once.  The lucent profile at scale 0.005 is the smallest
    it holds at."""

    LABELS = ["unbounded", "in_file", "tight", "statics"]

    @staticmethod
    def resolve_budget(label: str, statics: int, in_file: int) -> int | None:
        if label == "unbounded":
            return None
        if label == "in_file":
            return in_file
        if label == "tight":
            return statics + max(1, (in_file - statics) // 8)
        return statics

    def test_reload_cost_monotone_in_budget(self, tmp_path):
        """Re-read count vs. budget: unbounded re-reads nothing, and
        shrinking the budget never reduces the re-read bill."""
        from repro.cla.reader import DatabaseStore
        from repro.driver.tables import build_database
        from repro.solvers import PreTransitiveSolver
        from repro.synth import generate

        path = build_database(generate("lucent", scale=0.005, seed=42),
                              str(tmp_path))
        with DatabaseStore.open(path) as probe:
            statics = len(probe.fetch_statics())
            in_file = probe.stats.in_file
        _RELOADS = {}
        for label in self.LABELS:
            budget = self.resolve_budget(label, statics, in_file)
            with BlockCache(DatabaseStore.open(path), budget) as cache:
                PreTransitiveSolver(cache).solve()
                for name in list(cache.block_names()):
                    cache.load_block(name)
                _RELOADS[label] = cache.stats.reloads
        assert set(_RELOADS) == set(self.LABELS)
        assert _RELOADS["unbounded"] == 0
        assert _RELOADS["in_file"] <= _RELOADS["tight"] <= _RELOADS["statics"]
        # The statics-only budget retains no blocks, so the reuse pass (and
        # any funcptr re-request during the solve) pays full re-read price.
        assert _RELOADS["statics"] > 0
