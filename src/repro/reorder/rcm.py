"""Reverse Cuthill–McKee ordering (paper §2.1.1).

Per connected component: find a pseudo-peripheral start vertex
(George–Liu), traverse in breadth-first order with vertices of each
level taken in ascending degree, then reverse the concatenated order.
Components are processed in order of their smallest vertex id, matching
common library behaviour (SuiteSparse, scipy).

Two paths share this module: :func:`rcm_ordering` dispatches to a
vectorised fast path (padded-adjacency BFS, one lexsort per component,
and the George–Liu level structure reused so the final BFS per
component disappears) or, under :func:`repro.util.fastpath.reference_mode`,
to :func:`rcm_ordering_reference` — the original scalar-idiom
implementation kept importable for differential testing.  The two are
permutation-exact by construction: BFS levels are a unique function of
the start vertex, so the ``(level, degree, id)`` lexsort keys agree.
"""

from __future__ import annotations

import numpy as np

from ..graph.bfs import bfs_levels
from ..graph import peripheral as _peripheral
from ..matrix.csr import CSRMatrix
from ..util.fastpath import fast_enabled, reference_mode
from .base import complete_partial_order, ordering_graph
from .perm import OrderingResult


def cuthill_mckee_component(g, start: int) -> np.ndarray:
    """CM order of ``start``'s component (not reversed)."""
    level = bfs_levels(g, start)
    reached = np.flatnonzero(level >= 0)
    deg = g.degrees()
    # visit by (level, degree, id): classical CM sorts each level by
    # ascending degree; id tie-break keeps it deterministic
    return reached[np.lexsort((reached, deg[reached], level[reached]))]


def _rcm_order_fast(a: CSRMatrix) -> np.ndarray:
    """CM order over all components, reusing the George–Liu levels."""
    g = ordering_graph(a)
    n = g.nvertices
    deg = g.degrees()
    visited = np.zeros(n, dtype=bool)
    pieces = []
    for seed in range(n):
        if visited[seed]:
            continue
        start, level = _peripheral.pseudo_peripheral_with_levels(g, seed)
        reached = np.flatnonzero(level >= 0)
        comp_order = reached[
            np.lexsort((reached, deg[reached], level[reached]))]
        visited[comp_order] = True
        pieces.append(comp_order)
    order = np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)
    return complete_partial_order(order, n)


def rcm_ordering(a: CSRMatrix, reverse: bool = True) -> OrderingResult:
    """Compute the RCM ordering of a sparse matrix.

    Returns a symmetric :class:`OrderingResult`; the permutation is the
    reversal of the Cuthill–McKee order over all components.  Pass
    ``reverse=False`` for the plain (unreversed) Cuthill–McKee order —
    equivalent for bandwidth, but RCM typically produces less fill in
    factorisations (paper §2.1.1).
    """
    if not fast_enabled():
        return rcm_ordering_reference(a, reverse=reverse)
    order = _rcm_order_fast(a)
    if reverse:
        order = order[::-1].copy()  # the "reverse" in RCM
    return OrderingResult("RCM" if reverse else "CM", order,
                          symmetric=True)


def rcm_ordering_reference(a: CSRMatrix,
                           reverse: bool = True) -> OrderingResult:
    """Scalar reference RCM (pre-vectorisation implementation)."""
    with reference_mode():
        g = ordering_graph(a)
        n = g.nvertices
        visited = np.zeros(n, dtype=bool)
        pieces = []
        for seed in range(n):
            if visited[seed]:
                continue
            start = _peripheral.pseudo_peripheral_vertex(g, seed)
            comp_order = cuthill_mckee_component(g, start)
            visited[comp_order] = True
            pieces.append(comp_order)
        order = (np.concatenate(pieces) if pieces
                 else np.empty(0, dtype=np.int64))
        order = complete_partial_order(order, n)
        if reverse:
            order = order[::-1].copy()  # the "reverse" in RCM
    return OrderingResult("RCM" if reverse else "CM", order,
                          symmetric=True)


def cm_ordering(a: CSRMatrix) -> OrderingResult:
    """The plain (unreversed) Cuthill–McKee ordering."""
    return rcm_ordering(a, reverse=False)
