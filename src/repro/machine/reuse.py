"""Reuse-distance sufficient statistics for the performance model.

Profiling a serial tiny sweep shows the dominant cost of a full
(matrix x ordering x architecture x kernel) grid is no longer the
reordering algorithms but :meth:`PerfModel.predict`: the windowed
working-set model re-derives cache-line ids and per-window distinct
counts from the same column stream once per thread, per architecture
and per kernel, even though those statistics depend only on the
*order* of the stream — they are architecture-independent.

This module computes the order-dependent statistics once per
(matrix, ordering) and serves every architecture / kernel / thread
count from them:

* :func:`prev_occurrence` — one stable argsort over the cache-line id
  stream yields, for every access, the index of the previous access to
  the same line (``-1`` for first occurrences).
  With it, the number of distinct lines in any window ``[s, e)`` is
  the count of positions there whose previous occurrence falls before
  ``s``; the model's vectorised pass
  (:meth:`PerfModel._x_loads_batch`) counts every thread's windows
  this way in O(nnz), **bit-identical** to the per-window
  ``np.unique`` loop of its scalar reference.
* :func:`stack_distances` — exact fully-associative LRU stack
  distances, computed with a vectorised merge-counting pass (no
  per-access Python loop); used by the cache simulator's fast path.
* :class:`ReuseStats` — the memoised per-matrix container threaded
  through ``simulate_measurement`` and ``predict_many`` so
  line ids, previous occurrences and row-length-change prefix sums are
  shared across all cells of one (matrix, ordering).

Build/hit counters live in the process-global
:data:`repro.obs.REGISTRY` (``reuse.builds`` / ``reuse.hits`` /
``reuse.bytes``) so the sweep engine can prove in
``sweep_metrics.json`` how much recomputation the fast path removed.
"""

from __future__ import annotations

import numpy as np

from ..obs import cachestats
from ..obs.metrics import REGISTRY

_BUILDS = REGISTRY.counter("reuse.builds")
_HITS = REGISTRY.counter("reuse.hits")
_BYTES = REGISTRY.counter("reuse.bytes")


def reuse_cache_stats() -> dict:
    """The memoised-statistics cache in the shared cache-stats schema.

    A *build* is a miss (the statistics had to be derived), a served
    memoised array is a hit; the cache is unbounded per matrix object
    (entries die with their matrix), so ``evictions`` is always 0.
    ``size_bytes`` accumulates the bytes of every built
    previous-occurrence array.
    """
    return cachestats.cache_stats(hits=_HITS.value, misses=_BUILDS.value,
                                  evictions=0, size_bytes=_BYTES.value)


# ----------------------------------------------------------------------
# core primitives
# ----------------------------------------------------------------------
def prev_occurrence(stream: np.ndarray) -> np.ndarray:
    """Index of the previous occurrence of every element, else ``-1``.

    ``prev[i] = max{j < i : stream[j] == stream[i]}`` or ``-1`` when no
    such ``j`` exists.  One stable argsort groups equal values while
    keeping their positions in increasing order, so consecutive entries
    of the sorted permutation with equal values are exactly the
    (previous, next) occurrence pairs.
    """
    stream = np.asarray(stream)
    n = stream.size
    prev = np.full(n, -1, dtype=np.int64)
    if n < 2:
        return prev
    order = np.argsort(stream, kind="stable")
    svals = stream[order]
    same = svals[1:] == svals[:-1]
    prev[order[1:][same]] = order[:-1][same]
    return prev


def _rank_before(values: np.ndarray) -> np.ndarray:
    """For every ``i``: ``#{j < i : values[j] <= values[i]}``.

    Bottom-up merge counting: at each level, adjacent blocks of size
    ``s`` are merged pairwise with one global lexsort; inside each pair
    a left-block element sorts before a right-block element of equal
    value (``is_right`` tie-break), so a cumulative count of left
    elements gives each right element its ``<=`` contribution.  Every
    ordered pair ``(j, i)`` meets in sibling blocks at exactly one
    level, so the contributions sum to the exact rank.  O(log n)
    vectorised passes, no per-element Python loop.
    """
    v = np.asarray(values)
    n = v.size
    rank = np.zeros(n, dtype=np.int64)
    if n < 2:
        return rank
    idx = np.arange(n, dtype=np.int64)
    size = 1
    while size < n:
        pair = idx // (2 * size)
        is_right = (idx // size) & 1
        order = np.lexsort((is_right, v, pair))
        left_sorted = 1 - is_right[order]
        csum = np.cumsum(left_sorted)
        pair_sorted = pair[order]
        seg_first = np.empty(n, dtype=bool)
        seg_first[0] = True
        seg_first[1:] = pair_sorted[1:] != pair_sorted[:-1]
        starts = np.flatnonzero(seg_first)
        base_vals = np.where(starts > 0, csum[np.maximum(starts - 1, 0)], 0)
        base = base_vals[np.cumsum(seg_first) - 1]
        # left elements earlier in this pair's merged order
        contrib = csum - left_sorted - base
        right_positions = order[is_right[order] == 1]
        rank[right_positions] += contrib[is_right[order] == 1]
        size *= 2
    return rank


def stack_distances(prev: np.ndarray) -> np.ndarray:
    """Exact LRU stack distance of every access of a reference stream.

    ``dist[i]`` is the number of *distinct* values accessed strictly
    between the previous occurrence of ``stream[i]`` and position
    ``i``; first occurrences get ``-1`` (cold).  A fully-associative
    LRU cache of capacity ``C`` (starting empty) hits access ``i``
    exactly when ``0 <= dist[i] < C``.

    Derivation: with ``p = prev[i] >= 0``, the distinct values in
    ``(p, i)`` are the positions ``j`` there whose own previous
    occurrence satisfies ``prev[j] <= p``.  Because ``prev[j] < j``
    always holds, *every* ``j <= p`` also satisfies ``prev[j] <= p``,
    so ``#{j < i : prev[j] <= p} = (p + 1) + dist[i]`` — one
    rank-before query on the ``prev`` array itself.
    """
    prev = np.asarray(prev, dtype=np.int64)
    dist = np.full(prev.size, -1, dtype=np.int64)
    if prev.size == 0:
        return dist
    rank = _rank_before(prev)
    warm = prev >= 0
    dist[warm] = rank[warm] - (prev[warm] + 1)
    return dist


# ----------------------------------------------------------------------
# per-(matrix, ordering) container
# ----------------------------------------------------------------------
class ReuseStats:
    """Order-dependent, architecture-independent model statistics.

    One instance is memoised per matrix object (each (matrix, ordering)
    pair of a sweep is its own :class:`~repro.matrix.csr.CSRMatrix`
    instance), so the statistics are computed once and shared across
    all architectures, kernels and thread counts evaluated on it.

    Everything is built lazily: :meth:`prev` keys the line-id and
    previous-occurrence arrays by words-per-line (64-byte lines hold 8
    x-vector doubles on every Table 2 machine, but the key keeps
    non-standard line sizes correct), and :meth:`row_change_prefix`
    serves any row range's row-length change count with one
    subtraction.
    """

    #: attribute used to memoise the instance on the matrix object;
    #: ``CSRMatrix.__getstate__`` drops ``_cache_*`` attributes so
    #: pickled matrices (process-pool fan-out) do not ship the caches.
    _ATTR = "_cache_reuse_stats"

    def __init__(self, a) -> None:
        self.matrix = a
        self._lines: dict = {}
        self._prev: dict = {}
        self._positions: np.ndarray | None = None
        self._row_change_prefix: np.ndarray | None = None

    @classmethod
    def for_matrix(cls, a) -> "ReuseStats":
        """The memoised statistics of ``a`` (built on first request)."""
        stats = getattr(a, cls._ATTR, None)
        if stats is None:
            stats = cls(a)
            object.__setattr__(a, cls._ATTR, stats)
        return stats

    # -- column-stream statistics -------------------------------------
    def lines(self, words_per_line: int) -> np.ndarray:
        """Cache-line id of every stored entry's column index."""
        cached = self._lines.get(words_per_line)
        if cached is None:
            cached = self.matrix.colidx // words_per_line
            self._lines[words_per_line] = cached
        return cached

    def prev(self, words_per_line: int) -> np.ndarray:
        """Previous-occurrence array of the cache-line id stream."""
        cached = self._prev.get(words_per_line)
        if cached is None:
            _BUILDS.inc()
            cached = prev_occurrence(self.lines(words_per_line))
            _BYTES.inc(int(cached.nbytes))
            self._prev[words_per_line] = cached
        else:
            _HITS.inc()
        return cached

    def positions(self, n: int) -> np.ndarray:
        """A shared ``arange`` scratch array of length at least ``n``."""
        if self._positions is None or self._positions.size < n:
            self._positions = np.arange(max(n, self.matrix.nnz),
                                        dtype=np.int64)
        return self._positions[:n]

    # -- row-structure statistics -------------------------------------
    def row_change_prefix(self) -> np.ndarray:
        """Prefix sums of the row-length change indicators.

        ``prefix[k]`` counts adjacent row pairs ``(i, i+1)`` with
        differing lengths among rows ``0..k``; any row range's change
        count is one subtraction away.
        """
        if self._row_change_prefix is None:
            lengths = np.diff(self.matrix.rowptr)
            prefix = np.zeros(max(lengths.size, 1), dtype=np.int64)
            if lengths.size > 1:
                np.cumsum(lengths[1:] != lengths[:-1], out=prefix[1:])
            self._row_change_prefix = prefix
        return self._row_change_prefix

    def prepare(self, words_per_lines=(8,)) -> "ReuseStats":
        """Force materialisation of the lazy arrays (for stage timing)."""
        from ..obs.trace import span

        with span("reuse.build", nnz=self.matrix.nnz,
                  line_sizes=list(words_per_lines)):
            for wpl in words_per_lines:
                self.prev(wpl)
            self.row_change_prefix()
        return self
