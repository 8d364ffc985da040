"""Breadth-first search over CSR adjacency, vectorised per level.

BFS is the workhorse of both RCM (level-structure ordering) and the
pseudo-peripheral vertex finder.  Two implementations live here:

* :func:`bfs_levels_reference` — the original per-level gather that
  deduplicates with ``np.unique`` *before* dropping already-visited
  vertices (one avoidable O(total log total) sort over the whole
  frontier expansion).
* :func:`bfs_levels_fast` — gathers through a memoised padded
  adjacency table (one 2-D fancy index per level, no per-level
  cumsum/repeat offset arithmetic), filters visited vertices *before*
  deduplicating, and switches to a level-mark scan instead of a sort
  once the candidate set is large.

Both return the identical level array — levels are a unique function
of the graph — and :func:`bfs_levels` dispatches between them on
:func:`repro.util.fastpath.fast_enabled`.
"""

from __future__ import annotations

import numpy as np

from ..util.fastpath import fast_enabled
from .adjacency import Graph

#: padded adjacency is only materialised when the padding waste is
#: bounded: n*maxdeg may exceed the edge count by at most this factor
_PAD_WASTE_FACTOR = 4


def bfs_levels(g: Graph, start: int) -> np.ndarray:
    """Return the BFS level of every vertex from ``start``.

    Unreachable vertices get level ``-1``.
    """
    if fast_enabled():
        return bfs_levels_fast(g, start)
    return bfs_levels_reference(g, start)


def bfs_levels_reference(g: Graph, start: int) -> np.ndarray:
    """Scalar-idiom reference BFS (pre-fast-path implementation)."""
    n = g.nvertices
    if not (0 <= start < n):
        raise IndexError(f"start vertex {start} out of range [0, {n})")
    level = np.full(n, -1, dtype=np.int64)
    level[start] = 0
    frontier = np.array([start], dtype=np.int64)
    depth = 0
    while frontier.size:
        depth += 1
        # gather all neighbours of the frontier in one shot
        counts = g.xadj[frontier + 1] - g.xadj[frontier]
        total = int(counts.sum())
        if total == 0:
            break
        offsets = np.arange(total, dtype=np.int64) - np.repeat(
            np.concatenate(([0], np.cumsum(counts[:-1]))), counts)
        nbrs = g.adjncy[np.repeat(g.xadj[frontier], counts) + offsets]
        nbrs = np.unique(nbrs)
        nbrs = nbrs[level[nbrs] < 0]
        if nbrs.size == 0:
            break
        level[nbrs] = depth
        frontier = nbrs
    return level


def _padded_adjacency(g: Graph):
    """``(n, maxdeg)`` adjacency table padded with ``-1``, memoised on
    the graph; ``None`` when padding would waste too much memory."""
    cached = getattr(g, "_cache_padded_adj", False)
    if cached is not False:
        return cached
    n = g.nvertices
    deg = g.degrees()
    maxdeg = int(deg.max(initial=0))
    if maxdeg == 0 or n * maxdeg > max(_PAD_WASTE_FACTOR * g.adjncy.size, 64):
        pad = None
    else:
        pad = np.full((n, maxdeg), -1, dtype=np.int64)
        cols = (np.arange(g.adjncy.size, dtype=np.int64)
                - np.repeat(g.xadj[:-1], deg))
        pad[np.repeat(np.arange(n, dtype=np.int64), deg), cols] = g.adjncy
        pad.flags.writeable = False
    object.__setattr__(g, "_cache_padded_adj", pad)
    return pad


def bfs_levels_fast(g: Graph, start: int) -> np.ndarray:
    """Vectorised BFS levels; bit-identical to the reference.

    The level array carries one extra sentinel slot at index ``n`` so
    the ``-1`` padding of the adjacency table indexes it (python's
    negative indexing) and is filtered by the same visited test — one
    boolean pass per level instead of three.
    """
    n = g.nvertices
    if not (0 <= start < n):
        raise IndexError(f"start vertex {start} out of range [0, {n})")
    level = np.full(n + 1, -1, dtype=np.int64)
    level[n] = 0  # sentinel: the -1 padding resolves here, non-negative
    level[start] = 0
    pad = _padded_adjacency(g)
    frontier = np.array([start], dtype=np.int64)
    depth = 0
    # at small n a full mark-and-scan per level beats sorting for
    # uniqueness; at large n only do it for large candidate sets
    always_scan = n <= (1 << 16)
    scan_threshold = n >> 3
    body = level[:n]
    while True:
        depth += 1
        if pad is not None:
            cand = pad[frontier].ravel()
        else:
            counts = g.xadj[frontier + 1] - g.xadj[frontier]
            total = int(counts.sum())
            if total == 0:
                break
            offsets = np.arange(total, dtype=np.int64) - np.repeat(
                np.concatenate(([0], np.cumsum(counts[:-1]))), counts)
            cand = g.adjncy[np.repeat(g.xadj[frontier], counts) + offsets]
        cand = cand[level[cand] < 0]
        if cand.size == 0:
            break
        if always_scan or cand.size > scan_threshold:
            level[cand] = depth
            frontier = np.flatnonzero(body == depth)
        else:
            frontier = np.unique(cand)
            level[frontier] = depth
    return body
