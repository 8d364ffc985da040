"""Gibbs–Poole–Stockmeyer bandwidth/profile reduction (paper §2.1.1).

The paper cites GPS [Gibbs, Poole & Stockmeyer 1976] alongside
Cuthill–McKee as the classical bandwidth reducers.  GPS improves on CM
in two ways:

1. it finds *two* pseudo-peripheral endpoints u, v of a long shortest
   path and combines their level structures into one with smaller level
   widths (vertices are placed on the level where the rooted structures
   agree; ties go to the smaller of the two candidate levels by width);
2. the combined level structure is then numbered level by level in
   CM fashion.

This implementation follows the published algorithm's structure while
simplifying the tie-breaking heuristics (which affect constants, not
the asymptotic envelope quality).
"""

from __future__ import annotations

import numpy as np

from ..graph.bfs import bfs_levels
from ..graph.peripheral import pseudo_peripheral_vertex
from ..matrix.csr import CSRMatrix
from .base import complete_partial_order, ordering_graph
from .perm import OrderingResult


def _combined_levels(g, u: int, v: int) -> np.ndarray:
    """GPS level assignment from the two rooted level structures."""
    lu = bfs_levels(g, u)
    lv = bfs_levels(g, v)
    reached = lu >= 0
    depth = int(lu[reached].max(initial=0))
    # mirror the v-structure so both count from u's side
    lv_m = np.where(lv >= 0, depth - lv, -1)
    level = np.full(g.nvertices, -1, dtype=np.int64)
    agree = reached & (lu == lv_m)
    level[agree] = lu[agree]
    rest = np.flatnonzero(reached & ~agree)
    if rest.size:
        # place each remaining vertex on the less-populated of its two
        # candidate levels (the GPS width-minimising rule)
        counts = np.bincount(level[agree][level[agree] >= 0],
                             minlength=depth + 1).astype(np.int64)
        order = rest[np.argsort(lu[rest], kind="stable")]
        for w in order:
            cand = [int(lu[w]), int(lv_m[w])]
            cand = [c for c in cand if 0 <= c <= depth]
            if not cand:
                cand = [int(lu[w])]
            best = min(cand, key=lambda c: counts[c])
            level[w] = best
            counts[best] += 1
    return level


def gps_ordering(a: CSRMatrix) -> OrderingResult:
    """Compute the GPS ordering (symmetric permutation)."""
    g = ordering_graph(a)
    n = g.nvertices
    deg = g.degrees()
    visited = np.zeros(n, dtype=bool)
    pieces = []
    for seed in range(n):
        if visited[seed]:
            continue
        u = pseudo_peripheral_vertex(g, seed)
        lu = bfs_levels(g, u)
        comp = np.flatnonzero(lu >= 0)
        visited[comp] = True
        # endpoint v: minimum-degree vertex of u's deepest level
        deepest = comp[lu[comp] == lu[comp].max()]
        v = int(deepest[np.argmin(deg[deepest])])
        level = _combined_levels(g, u, v)
        # CM-style numbering of the combined structure
        order = comp[np.lexsort((comp, deg[comp], level[comp]))]
        pieces.append(order)
    order = (np.concatenate(pieces) if pieces
             else np.empty(0, dtype=np.int64))
    order = complete_partial_order(order, n)
    return OrderingResult("GPS", order[::-1].copy(), symmetric=True)
