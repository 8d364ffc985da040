"""Heavy-edge matching for multilevel coarsening.

Karypis & Kumar's HEM visits vertices in random order and matches each
unmatched vertex with its unmatched neighbour of maximal edge weight.
Heavier edges collapse first, so their weight disappears from the
coarse graph and cannot contribute to any coarse cut — the property
that makes multilevel edge-cut partitioning work.

The visit loop is inherently sequential (each match constrains the
next), so the fast path keeps the loop but runs it on plain Python
lists with a first-maximum scan — ``np.argmax`` over a masked slice
boxes several numpy scalars per vertex and dominates the runtime on
the small graphs coarsening produces.  Tie-breaking is identical:
the first neighbour (adjacency order) attaining the maximal weight
wins, exactly as ``argmax`` resolves ties.
"""

from __future__ import annotations

import numpy as np

from ..graph.adjacency import Graph
from ..util.fastpath import fast_enabled
from ..util.rng import as_rng

UNMATCHED = -1


def heavy_edge_matching(g: Graph, rng=None) -> np.ndarray:
    """Return ``match`` with ``match[v]`` = partner of v (or v itself).

    Unmatchable vertices (no unmatched neighbour) are matched to
    themselves, so ``match`` always defines a valid contraction with
    every coarse vertex holding one or two fine vertices.
    """
    if not fast_enabled():
        return heavy_edge_matching_reference(g, rng=rng)
    rng = as_rng(rng)
    n = g.nvertices
    order = rng.permutation(n).tolist()
    match = [UNMATCHED] * n
    xadj = g.xadj.tolist()
    adjncy = g.adjncy.tolist()
    ewgt = g.ewgt.tolist()
    for v in order:
        if match[v] != UNMATCHED:
            continue
        best = UNMATCHED
        best_w = -1
        for idx in range(xadj[v], xadj[v + 1]):
            u = adjncy[idx]
            if u == v or match[u] != UNMATCHED:
                continue
            w = ewgt[idx]
            if w > best_w:  # first maximum wins, like np.argmax
                best_w = w
                best = u
        if best != UNMATCHED:
            match[v] = best
            match[best] = v
        else:
            match[v] = v
    return np.array(match, dtype=np.int64)


def heavy_edge_matching_reference(g: Graph, rng=None) -> np.ndarray:
    """Numpy-slice reference HEM (pre-fast-path implementation)."""
    rng = as_rng(rng)
    n = g.nvertices
    match = np.full(n, UNMATCHED, dtype=np.int64)
    order = rng.permutation(n)
    xadj, adjncy, ewgt = g.xadj, g.adjncy, g.ewgt
    for v in order:
        if match[v] != UNMATCHED:
            continue
        lo, hi = xadj[v], xadj[v + 1]
        nbrs = adjncy[lo:hi]
        weights = ewgt[lo:hi]
        free = match[nbrs] == UNMATCHED
        # exclude self-loops (shouldn't exist, but be safe)
        free &= nbrs != v
        if np.any(free):
            cand = nbrs[free]
            u = int(cand[np.argmax(weights[free])])
            match[v] = u
            match[u] = v
        else:
            match[v] = v
    return match


def matching_to_coarse_map(match: np.ndarray) -> tuple:
    """Convert a matching into (cmap, ncoarse).

    ``cmap[v]`` is the coarse vertex holding fine vertex v; pairs share a
    coarse vertex.  Coarse ids are assigned in increasing order of the
    smaller fine id, so the map is deterministic given the matching.
    """
    if not fast_enabled():
        return matching_to_coarse_map_reference(match)
    match = np.asarray(match, dtype=np.int64)
    n = match.size
    # the smaller fine id of each pair (or a self-match) is the
    # representative; ids in increasing representative order
    reps = np.flatnonzero(np.arange(n, dtype=np.int64) <= match)
    ids = np.arange(reps.size, dtype=np.int64)
    cmap = np.full(n, -1, dtype=np.int64)
    cmap[reps] = ids
    cmap[match[reps]] = ids
    return cmap, int(reps.size)


def matching_to_coarse_map_reference(match: np.ndarray) -> tuple:
    """Scalar reference for :func:`matching_to_coarse_map`."""
    n = match.size
    cmap = np.full(n, -1, dtype=np.int64)
    next_id = 0
    for v in range(n):
        if cmap[v] >= 0:
            continue
        u = match[v]
        cmap[v] = next_id
        if u != v:
            cmap[u] = next_id
        next_id += 1
    return cmap, next_id
