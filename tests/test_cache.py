"""Bounded-cache behaviour: eviction, hit accounting, and the profile
caches the campaign engine relies on staying bounded on large sweeps."""

import pytest

from repro.benchdata.engine import block_profile
from repro.caching import CacheStats, LRUCache
from repro.hardware.roofline import (
    GRAPH_RECORD_CACHE,
    graph_record,
    zoo_profile,
)


class TestLRUCache:
    def test_get_or_compute_computes_once(self):
        cache = LRUCache(maxsize=4)
        calls = []
        for _ in range(3):
            value = cache.get_or_compute("k", lambda: calls.append(1) or 42)
        assert value == 42
        assert len(calls) == 1
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (2, 1)

    def test_eviction_keeps_size_bounded(self):
        cache = LRUCache(maxsize=3)
        for i in range(10):
            cache.get_or_compute(i, lambda i=i: i)
        assert len(cache) == 3
        assert cache.stats().evictions == 7

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(maxsize=2)
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("b", lambda: 2)
        cache.get_or_compute("a", lambda: 1)  # refresh "a"
        cache.get_or_compute("c", lambda: 3)  # evicts "b", not "a"
        assert "a" in cache and "c" in cache
        assert "b" not in cache

    def test_hit_rate(self):
        cache = LRUCache(maxsize=4)
        assert cache.stats().hit_rate == 0.0
        cache.get_or_compute("k", lambda: 1)
        cache.get_or_compute("k", lambda: 1)
        cache.get_or_compute("k", lambda: 1)
        cache.get_or_compute("j", lambda: 2)
        assert cache.stats().hit_rate == pytest.approx(0.5)

    def test_clear_drops_entries_but_keeps_counters(self):
        cache = LRUCache(maxsize=4)
        cache.get_or_compute("k", lambda: 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().misses == 1

    def test_invalid_maxsize_rejected(self):
        with pytest.raises(ValueError, match="maxsize"):
            LRUCache(maxsize=0)


class TestCacheStats:
    def test_add_and_subtract(self):
        a = CacheStats(hits=5, misses=2, evictions=1)
        b = CacheStats(hits=1, misses=1, evictions=0)
        assert (a + b).hits == 6
        assert (a - b) == CacheStats(hits=4, misses=1, evictions=1)

    def test_summary_mentions_rate(self):
        assert "hits" in CacheStats(hits=3, misses=1).summary()
        assert "75%" in CacheStats(hits=3, misses=1).summary()


class TestProfileCaches:
    """The campaign's graph/profile builders must be memoised *and*
    bounded — sweep length must not translate into memory growth.  Every
    zoo model and block shares the one graph record cache."""

    def test_zoo_profile_is_memoised(self):
        before = GRAPH_RECORD_CACHE.stats()
        first = zoo_profile("alexnet", 64)
        second = zoo_profile("alexnet", 64)
        delta = GRAPH_RECORD_CACHE.stats() - before
        assert second is first
        assert first is graph_record("model", "alexnet", 64).profile
        assert delta.hits >= 1

    def test_zoo_profile_cache_is_bounded(self):
        assert GRAPH_RECORD_CACHE.maxsize == 512
        assert len(GRAPH_RECORD_CACHE) <= GRAPH_RECORD_CACHE.maxsize

    def test_block_profile_is_memoised_and_bounded(self):
        before = GRAPH_RECORD_CACHE.stats()
        first = block_profile("MBConv", 96)
        second = block_profile("MBConv", 96)
        delta = GRAPH_RECORD_CACHE.stats() - before
        assert second is first
        assert first is graph_record("block", "MBConv", 96).profile
        assert delta.hits >= 1
        assert ("block", "MBConv", 96, "") in GRAPH_RECORD_CACHE

    def test_unknown_block_rejected(self):
        with pytest.raises(KeyError, match="unknown block"):
            block_profile("NoSuchBlock", 64)

    def test_blocks_and_models_do_not_collide(self, monkeypatch):
        from repro.hardware import roofline
        from repro.zoo import build_model

        monkeypatch.setattr(
            roofline, "GRAPH_RECORD_CACHE", LRUCache(maxsize=512)
        )
        # A model record filed under a block's name and image size must
        # not be served for the block.
        model = graph_record(
            "model", "MBConv", 96, graph=build_model("resnet18", 96)
        )
        block = graph_record("block", "MBConv", 96)
        assert block is not model
        assert block.profile.graph_name != model.profile.graph_name
        assert block_profile("MBConv", 96) is block.profile
        assert roofline.GRAPH_RECORD_CACHE.stats() == CacheStats(
            hits=1, misses=2
        )

    def test_record_holds_no_graph_or_cost_list(self):
        record = graph_record("model", "alexnet", 64)
        assert sorted(vars(record)) == ["features", "profile", "summary"]
