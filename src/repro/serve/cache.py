"""LRU result cache with generation-based invalidation.

The serving layer memoizes boolean query answers keyed on
``(u, v, window, theta)``.  An answer is only valid for the graph state
it was computed against, so every entry is stamped with the cache's
*generation* at insert time.  Invalidation is O(1): a mutation bumps
the generation and stale entries are dropped lazily on their next
lookup (or pushed out by normal LRU pressure), so an edge insert never
pays a full-cache sweep on the hot path.

Counters (hits / misses / evictions / stale drops) are plain attributes
read by :class:`repro.serve.QueryEngine` for its observability surface.

Concurrency contract: by default the cache is single-threaded (the
engine's documented per-worker isolation).  ``thread_safe=True`` guards
every mutating path with one lock so concurrent batch submission
cannot corrupt the LRU order, the stale accounting, or the counters.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable, Tuple

#: Sentinel distinguishing "not cached" from a cached ``False`` answer.
MISS = object()


class GenerationalLRUCache:
    """A bounded LRU mapping whose entries expire wholesale by generation.

    ``capacity <= 0`` disables storage entirely (every ``get`` misses,
    every ``put`` is a no-op) — used where batch dedup is wanted but
    cross-call memoization is not.  ``thread_safe=True`` serializes
    ``get``/``put``/``bump_generation``/``clear`` behind a lock (see
    the module docstring); the default pays no locking cost.
    """

    __slots__ = (
        "capacity", "generation",
        "hits", "misses", "evictions", "stale_drops",
        "_data", "_stale", "_lock",
    )

    def __init__(self, capacity: int = 4096, thread_safe: bool = False):
        self.capacity = capacity
        self.generation = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.stale_drops = 0
        self._data: "OrderedDict[Hashable, Tuple[int, Any]]" = OrderedDict()
        # Count of stored entries stamped with an older generation.
        # Stale entries always sit at the LRU front: a lookup either
        # deletes one or refreshes a live entry to the back, so lazily
        # dropping from the front under pressure only touches them.
        self._stale = 0
        self._lock = threading.Lock() if thread_safe else None

    def __len__(self) -> int:
        """Number of *live* entries (stale ones are already dead — they
        can never be served again, only dropped)."""
        return len(self._data) - self._stale

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def bump_generation(self) -> int:
        """Invalidate every current entry; returns the new generation."""
        lock = self._lock
        if lock is None:
            self.generation += 1
            self._stale = len(self._data)
            return self.generation
        with lock:
            self.generation += 1
            self._stale = len(self._data)
            return self.generation

    def get(self, key: Hashable) -> Any:
        """The cached value for *key*, or :data:`MISS`.

        Entries stamped with an older generation are treated as absent
        and removed on the spot.
        """
        lock = self._lock
        if lock is None:
            return self._get(key)
        with lock:
            return self._get(key)

    def _get(self, key: Hashable) -> Any:
        entry = self._data.get(key)
        if entry is None:
            self.misses += 1
            return MISS
        gen, value = entry
        if gen != self.generation:
            del self._data[key]
            self._stale -= 1
            self.stale_drops += 1
            self.misses += 1
            return MISS
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Store *value* under *key* at the current generation."""
        if self.capacity <= 0:
            return
        lock = self._lock
        if lock is None:
            self._put(key, value)
        else:
            with lock:
                self._put(key, value)

    def _put(self, key: Hashable, value: Any) -> None:
        data = self._data
        if key in data:
            if data[key][0] != self.generation:
                self._stale -= 1  # overwritten with a fresh stamp
            data[key] = (self.generation, value)
            data.move_to_end(key)
            return
        data[key] = (self.generation, value)
        # Under pressure, drop dead (stale) entries first so they never
        # push out live answers, and attribute them to ``stale_drops``
        # — ``evictions`` counts only live entries lost to capacity.
        while len(data) > self.capacity and self._stale:
            data.popitem(last=False)
            self._stale -= 1
            self.stale_drops += 1
        if len(data) > self.capacity:
            data.popitem(last=False)
            self.evictions += 1

    def note_misses(self, n: int) -> None:
        """Bulk-count *n* lookups that bypassed storage (cache off).

        Keeps the stats surface identical whether or not storage is
        enabled; goes through the lock so a concurrent :meth:`get`
        cannot lose the update.
        """
        lock = self._lock
        if lock is None:
            self.misses += n
            return
        with lock:
            self.misses += n

    def clear(self) -> None:
        """Drop all entries (counters are preserved)."""
        lock = self._lock
        if lock is None:
            self._data.clear()
            self._stale = 0
            return
        with lock:
            self._data.clear()
            self._stale = 0
