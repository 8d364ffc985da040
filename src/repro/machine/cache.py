"""Exact LRU set-associative cache simulator.

Used to validate the analytical model's x-vector reuse term on small
matrices, and available to users who want exact miss counts.  This is a
straightforward reference implementation (Python dict per set), not a
performance-oriented one — the analytical model exists precisely
because simulating every access for 490 matrices × 8 machines would be
intractable.
"""

from __future__ import annotations

import numpy as np

from ..errors import ArchitectureError
from ..matrix.csr import CSRMatrix
from ..obs import cachestats


class LRUCache:
    """A size/line/associativity-parameterised LRU cache.

    ``access(addr)`` returns True on hit.  Addresses are byte addresses;
    each access touches exactly one line (the model's accesses are
    8-byte loads, which never straddle 64-byte lines when 8-aligned).
    """

    def __init__(self, size: int, line_size: int = 64,
                 associativity: int = 8) -> None:
        if size <= 0 or line_size <= 0 or associativity <= 0:
            raise ArchitectureError("cache parameters must be positive")
        if size % (line_size * associativity):
            raise ArchitectureError(
                f"cache size {size} not divisible by line*assoc "
                f"({line_size}*{associativity})")
        self.size = size
        self.line_size = line_size
        self.associativity = associativity
        self.nsets = size // (line_size * associativity)
        # per set: dict tag -> timestamp (dicts preserve insertion order,
        # but we need recency order, so store an explicit clock)
        self._sets = [dict() for _ in range(self.nsets)]
        self._clock = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def reset_counters(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def stats(self) -> dict:
        """Counters in the shared cache-stats schema
        (:data:`repro.obs.CACHE_STATS_KEYS`), like every other cache in
        the code base.  ``size_bytes`` is the resident line footprint."""
        resident = sum(len(s) for s in self._sets)
        return cachestats.cache_stats(
            hits=self.hits, misses=self.misses, evictions=self.evictions,
            size_bytes=resident * self.line_size)

    def flush(self) -> None:
        for s in self._sets:
            s.clear()

    def access(self, addr: int) -> bool:
        """Access one byte address; returns True on hit."""
        line = addr // self.line_size
        set_idx = line % self.nsets
        tag = line // self.nsets
        ways = self._sets[set_idx]
        self._clock += 1
        if tag in ways:
            ways[tag] = self._clock
            self.hits += 1
            return True
        self.misses += 1
        if len(ways) >= self.associativity:
            victim = min(ways, key=ways.get)
            del ways[victim]
            self.evictions += 1
        ways[tag] = self._clock
        return False

    def access_many(self, addrs) -> int:
        """Access a sequence of addresses; returns the miss count."""
        before = self.misses
        for a in np.asarray(addrs, dtype=np.int64):
            self.access(int(a))
        return self.misses - before


def simulate_x_misses(a: CSRMatrix, cache: LRUCache,
                      x_base: int = 0) -> int:
    """Exact miss count for the x-vector loads of a sequential SpMV.

    Only x accesses go through the cache (matrix data is streaming and
    assumed never to fit, which is also what the analytical model
    assumes).  Returns total misses over one full SpMV sweep.
    """
    cache.reset_counters()
    addrs = x_base + a.colidx * 8
    return cache.access_many(addrs)
