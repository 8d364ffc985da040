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
  (:func:`~repro.machine.model.predict_cells`) counts every thread's
  windows this way with prefix sums in O(nnz), **bit-identical** to
  the per-window ``np.unique`` loop of its scalar reference.
* :class:`ReuseStats` — the per-matrix container memoised on the
  matrix object (:meth:`ReuseStats.for_matrix`), so every prediction
  on one (matrix, ordering) — whatever the architecture, kernel or
  thread count, in one grid pass or many — shares its line ids,
  previous occurrences and row-length-change prefix sums.  Each cell
  of a pass reads its previous-occurrence array once, so
  ``reuse.hits`` still counts served cells.

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
    (previous, next) occurrence pairs.  A stream whose values all fit
    in 16 bits is sorted as a ``uint16`` copy, which numpy's stable
    argsort radix-sorts; a stable sort's permutation is unique, so the
    result is the same.
    """
    stream = np.asarray(stream)
    n = stream.size
    prev = np.full(n, -1, dtype=np.int64)
    if n < 2:
        return prev
    if stream.dtype.kind in "iu" and stream.min() >= 0 \
            and stream.max() <= np.iinfo(np.uint16).max:
        stream = stream.astype(np.uint16)
    order = np.argsort(stream, kind="stable")
    svals = stream[order]
    same = svals[1:] == svals[:-1]
    prev[order[1:][same]] = order[:-1][same]
    return prev


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
