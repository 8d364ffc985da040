"""Nested dissection ordering (paper §2.1.2).

Recursively: compute a vertex separator (from a multilevel edge
bisection, :mod:`repro.partition.separator`), order the two halves
first and the separator last, and recurse into the halves.  Subgraphs
below ``leaf_size`` are ordered with minimum degree — the same hybrid
METIS's ND routine uses (it switches to MMD on small pieces).
"""

from __future__ import annotations

import numpy as np

from ..graph.adjacency import Graph
from ..matrix.csr import CSRMatrix
from ..partition.recursive import induced_subgraph
from ..partition.separator import vertex_separator
from ..util.rng import as_rng
from .base import complete_partial_order, ordering_graph
from .perm import OrderingResult

DEFAULT_LEAF_SIZE = 64


def _leaf_order(g: Graph) -> np.ndarray:
    """Minimum-degree order of a small leaf subgraph.

    Runs the AMD routine on the leaf's adjacency; leaves are tiny so the
    quotient-graph machinery is instant.
    """
    from .amd import amd_ordering
    from ..matrix.build import coo_from_arrays, csr_from_coo

    n = g.nvertices
    if n <= 1:
        return np.arange(n, dtype=np.int64)
    src = np.repeat(np.arange(n, dtype=np.int64), g.degrees())
    pattern = csr_from_coo(coo_from_arrays(n, n, src, g.adjncy))
    return amd_ordering(pattern).perm


def _dissect(g: Graph, global_ids: np.ndarray, leaf_size: int, rng,
             out: list) -> None:
    """Append ``global_ids`` to ``out`` in nested-dissection order."""
    if g.nvertices <= leaf_size:
        out.append(global_ids[_leaf_order(g)])
        return
    a, b, sep = vertex_separator(g, rng=rng)
    if sep.size == 0 or a.size == 0 or b.size == 0:
        # no useful separator (clique-like or disconnected-degenerate):
        # fall back to minimum degree for the whole piece
        out.append(global_ids[_leaf_order(g)])
        return
    sub_a, loc_a = induced_subgraph(g, a)
    sub_b, loc_b = induced_subgraph(g, b)
    _dissect(sub_a, global_ids[loc_a], leaf_size, rng, out)
    _dissect(sub_b, global_ids[loc_b], leaf_size, rng, out)
    out.append(global_ids[sep])


def nd_ordering(a: CSRMatrix, leaf_size: int = DEFAULT_LEAF_SIZE,
                seed=0) -> OrderingResult:
    """Compute the nested dissection ordering (symmetric permutation)."""
    g = ordering_graph(a)
    rng = as_rng(seed)
    pieces: list = []
    _dissect(g, np.arange(g.nvertices, dtype=np.int64), leaf_size, rng,
             pieces)
    order = (np.concatenate(pieces) if pieces
             else np.empty(0, dtype=np.int64))
    perm = complete_partial_order(order, g.nvertices)
    return OrderingResult("ND", perm, symmetric=True)


def nd_ordering_reference(a: CSRMatrix, leaf_size: int = DEFAULT_LEAF_SIZE,
                          seed=0) -> OrderingResult:
    """ND with every pipeline stage forced onto the scalar reference
    implementations (BFS, FM refinement, AMD leaf ordering)."""
    from ..util.fastpath import reference_mode

    with reference_mode():
        return nd_ordering(a, leaf_size=leaf_size, seed=seed)
