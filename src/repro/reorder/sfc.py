"""Space-filling-curve ordering (paper §2.1.4, Oliker et al. 2002).

Space-filling curves need geometric coordinates, which a bare sparsity
pattern does not carry.  Following the standard graph-embedding trick,
we synthesise 2-D coordinates from the graph metric itself: pick two
far-apart landmark vertices (double BFS sweep, the same machinery RCM's
pseudo-peripheral finder uses) and use the BFS distances to them as
(x, y).  Vertices are then ordered along the Morton (Z-order) curve of
those coordinates.  For mesh-like matrices the embedding recovers the
physical layout well enough that the curve yields banded-ish locality;
for unstructured graphs it degrades gracefully to a BFS-like order.
"""

from __future__ import annotations

import numpy as np

from ..graph.bfs import bfs_levels
from ..graph.peripheral import pseudo_peripheral_vertex
from ..matrix.csr import CSRMatrix
from .base import complete_partial_order, ordering_graph
from .perm import OrderingResult

MORTON_BITS = 16


def morton_interleave(x: np.ndarray, y: np.ndarray,
                      bits: int = MORTON_BITS) -> np.ndarray:
    """Interleave the low ``bits`` of x and y into Z-order keys."""
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    key = np.zeros(x.shape, dtype=np.int64)
    for b in range(bits):
        key |= ((x >> b) & 1) << (2 * b)
        key |= ((y >> b) & 1) << (2 * b + 1)
    return key


def graph_coordinates(g, component: np.ndarray) -> tuple:
    """Landmark-BFS 2-D embedding of one connected component."""
    seed = int(component[0])
    u = pseudo_peripheral_vertex(g, seed)
    du = bfs_levels(g, u)
    far = component[du[component] == du[component].max()]
    v = int(far[0])
    dv = bfs_levels(g, v)
    return du[component], dv[component]


def sfc_ordering(a: CSRMatrix) -> OrderingResult:
    """Morton-order rows along a landmark-BFS embedding (symmetric)."""
    g = ordering_graph(a)
    n = g.nvertices
    visited = np.zeros(n, dtype=bool)
    pieces = []
    for seed in range(n):
        if visited[seed]:
            continue
        levels = bfs_levels(g, seed)
        comp = np.flatnonzero(levels >= 0)
        visited[comp] = True
        if comp.size == 1:
            pieces.append(comp)
            continue
        x, y = graph_coordinates(g, comp)
        keys = morton_interleave(np.maximum(x, 0), np.maximum(y, 0))
        pieces.append(comp[np.lexsort((comp, keys))])
    order = (np.concatenate(pieces) if pieces
             else np.empty(0, dtype=np.int64))
    order = complete_partial_order(order, n)
    return OrderingResult("SFC", order, symmetric=True)
