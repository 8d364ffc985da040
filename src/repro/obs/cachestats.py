"""One cache-statistics schema for every cache in the code base.

Before this module each cache invented its own stats dict:
``OrderingCache.stats`` reported ``hits/disk_hits/misses/requests``,
the advisor's LRU caches ``hits/misses/evictions/size/capacity``, and
the memoised reuse statistics only module counters.  Dashboards and
tests had to know three shapes.

Every cache now exposes **at least** :data:`CACHE_STATS_KEYS`::

    hits          satisfied lookups (any storage level)
    misses        lookups that had to compute
    evictions     entries dropped to stay within capacity (0 if unbounded)
    hit_rate      hits / (hits + misses), 0.0 when idle
    size_bytes    best-effort bytes *resident* in the cache (heap-backed)
    mapped_bytes  bytes held as memory-mapped views (disk-backed pages
                  the OS can reclaim; NOT resident heap — see
                  :mod:`repro.storage`)

Caches may add extra keys (``disk_hits``, ``capacity``, ...) but the
shared keys always exist with these meanings —
``tests/obs/test_cachestats.py`` pins the shape for all of them.
"""

from __future__ import annotations

import sys

__all__ = ["CACHE_STATS_KEYS", "cache_stats", "sizeof_value",
           "mapped_nbytes"]

#: the keys every cache's ``stats`` mapping must expose.
CACHE_STATS_KEYS = ("hits", "misses", "evictions", "hit_rate",
                    "size_bytes", "mapped_bytes")


def cache_stats(hits: int = 0, misses: int = 0, evictions: int = 0,
                size_bytes: int = 0, mapped_bytes: int = 0,
                **extra) -> dict:
    """Assemble a stats dict in the shared schema (plus extras)."""
    total = hits + misses
    out = {
        "hits": int(hits),
        "misses": int(misses),
        "evictions": int(evictions),
        "hit_rate": hits / total if total else 0.0,
        "size_bytes": int(size_bytes),
        "mapped_bytes": int(mapped_bytes),
    }
    out.update(extra)
    return out


def mapped_nbytes(value) -> int:
    """Bytes of ``value`` that are memory-mapped rather than resident.

    An ``np.memmap`` array (or a view whose base chain ends in one) is
    disk-backed: its pages are reclaimable file cache, not private heap,
    so counting it in ``size_bytes`` would double-bill memory that the
    OS can drop at any time.  Returns ``value.nbytes`` for mapped
    arrays and 0 for everything else.
    """
    import numpy as np

    arr = value
    while isinstance(arr, np.ndarray):
        if isinstance(arr, np.memmap):
            return int(value.nbytes)
        arr = arr.base
    return 0


def sizeof_value(value) -> int:
    """Best-effort resident size of one cached value.

    Prefers NumPy's exact ``nbytes`` (covers permutations, feature
    vectors and statistics arrays); falls back to
    ``sys.getsizeof``.  Containers report the sum over their items
    plus their own overhead.
    """
    nbytes = getattr(value, "nbytes", None)
    if isinstance(nbytes, int):
        return nbytes
    if isinstance(value, (list, tuple, set, frozenset)):
        return sys.getsizeof(value) + sum(sizeof_value(v) for v in value)
    if isinstance(value, dict):
        return sys.getsizeof(value) + sum(
            sizeof_value(k) + sizeof_value(v) for k, v in value.items())
    # dataclass-ish objects: count their public ndarray attributes
    arrays = [a for a in (getattr(value, f, None)
                          for f in getattr(value, "__dataclass_fields__", ()))
              if getattr(a, "nbytes", None) is not None]
    if arrays:
        return sys.getsizeof(value) + sum(a.nbytes for a in arrays)
    try:
        return sys.getsizeof(value)
    except TypeError:  # pragma: no cover - exotic objects
        return 0
