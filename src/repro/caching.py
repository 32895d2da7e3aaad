"""Bounded, observable memoisation.

Campaign sweeps rebuild the same ``(model, image_size)`` graph/profile pair
thousands of times; unbounded ``functools.lru_cache`` hides both the memory
footprint and the hit rate.  This module provides the explicit alternative:
an LRU cache with a hard ``maxsize``, hit/miss/eviction counters, and a
snapshot/delta API so a campaign can report the hit rate it actually
achieved — across worker processes, not just in the parent.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Generic, Hashable, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


@dataclass(frozen=True)
class CacheStats:
    """Counters of one cache (or an aggregate of several)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never queried)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def __add__(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            evictions=self.evictions + other.evictions,
        )

    def __sub__(self, other: "CacheStats") -> "CacheStats":
        """Delta since an earlier :meth:`LRUCache.stats` snapshot."""
        return CacheStats(
            hits=self.hits - other.hits,
            misses=self.misses - other.misses,
            evictions=self.evictions - other.evictions,
        )

    def summary(self) -> str:
        return (
            f"{self.hits}/{self.lookups} hits "
            f"({self.hit_rate:.0%}), {self.evictions} evictions"
        )

    def to_dict(self) -> dict[str, float]:
        """All counters plus derived rates, JSON-ready — the shape the
        serve ``/metrics`` endpoint reports."""
        return {
            "hits": float(self.hits),
            "misses": float(self.misses),
            "evictions": float(self.evictions),
            "lookups": float(self.lookups),
            "hit_rate": self.hit_rate,
        }

    def as_counters(self) -> dict[str, float]:
        """The counters in the trace layer's ``name -> float`` shape, for
        merging into campaign-wide work-counter totals."""
        return {
            "cache_hits": float(self.hits),
            "cache_misses": float(self.misses),
            "cache_evictions": float(self.evictions),
        }


class LRUCache(Generic[K, V]):
    """A thread-safe least-recently-used cache with a hard size bound."""

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._data: OrderedDict[K, V] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: K) -> bool:
        with self._lock:
            return key in self._data

    def get_or_compute(self, key: K, compute: Callable[[], V]) -> V:
        """Return the cached value, computing and storing it on a miss."""
        with self._lock:
            if key in self._data:
                self._hits += 1
                self._data.move_to_end(key)
                return self._data[key]
            self._misses += 1
        # Compute outside the lock: graph builds are slow and independent.
        # Two threads may compute the same key concurrently; the later one
        # gets the earlier one's identical (deterministically built) value,
        # so the stale membership check is benign.
        return self.add(key, compute())

    def add(self, key: K, value: V) -> V:
        """Store ``value`` unless ``key`` is cached; return the cached value.

        Counts no lookup: also for values computed alongside another key's
        miss.
        """
        with self._lock:
            if key in self._data:
                return self._data[key]
            self._data[key] = value
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self._evictions += 1
        return value

    def clear(self) -> None:
        """Drop all entries; counters keep accumulating across clears."""
        with self._lock:
            self._data.clear()

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(self._hits, self._misses, self._evictions)
