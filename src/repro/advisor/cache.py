"""A small thread-safe LRU cache with observable hit/miss counters.

The serving path (:mod:`repro.advisor.service`) keeps two of these —
one for matrix features, one for finished advice — keyed the same way
:class:`repro.harness.runner.OrderingCache` keys permutations, so a
repeated request for the same matrix/architecture/kernel costs a dict
lookup instead of a feature pass.  The ``stats`` dict exposes the
shared cache-stats schema (:data:`repro.obs.CACHE_STATS_KEYS`), the
same shape ``OrderingCache.stats`` and the memoised reuse-statistics
cache report, so cache observability is uniform across the code base.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from ..errors import AdvisorError
from ..obs import cachestats


class LRUCache:
    """Bounded mapping with least-recently-used eviction."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise AdvisorError(
                f"LRU capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._data

    def get(self, key, default=None):
        """Return the cached value (refreshing recency) or ``default``."""
        with self._lock:
            if key in self._data:
                self._hits += 1
                self._data.move_to_end(key)
                return self._data[key]
            self._misses += 1
            return default

    def put(self, key, value) -> None:
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self._evictions += 1

    def get_or_compute(self, key, fn):
        """Cached lookup with a compute-on-miss fallback.

        The computation runs outside the lock, so concurrent misses on
        the same key may compute twice (last write wins) — acceptable
        for the advisor's deterministic, idempotent values.
        """
        sentinel = object()
        value = self.get(key, sentinel)
        if value is not sentinel:
            return value
        value = fn()
        self.put(key, value)
        return value

    @property
    def stats(self) -> dict:
        """Shared-schema counters plus ``size``/``capacity``.

        Assembled by :func:`repro.obs.cachestats.cache_stats` (via the
        module attribute, so differential checks can intercept it) —
        the zero-access ``hit_rate`` guard lives there, once, for every
        cache in the code base.
        """
        with self._lock:
            return cachestats.cache_stats(
                hits=self._hits, misses=self._misses,
                evictions=self._evictions,
                size_bytes=sum(cachestats.sizeof_value(v)
                               for v in self._data.values()),
                size=len(self._data), capacity=self.capacity)
