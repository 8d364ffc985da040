"""Hypergraph-partitioning ordering (paper §2.1.3 / §3.3).

Rows are partitioned through the column-net hypergraph model with the
cut-net objective (PaToH's configuration in the study), 128-way by
default as in the paper, with the same row-balance criterion as GP.
The resulting row grouping is applied symmetrically (rows and columns),
which the paper lists among the symmetric orderings.
"""

from __future__ import annotations

import time

from ..graph.hypergraph import column_net_hypergraph
from ..errors import ReorderingError
from ..hpartition.recursive import partition_hypergraph
from ..matrix.csr import CSRMatrix
from ..util.fastpath import reference_mode
from ..util.rng import as_rng
from ..util.validate import require
from .gp import perm_from_parts
from .perm import OrderingResult

DEFAULT_PARTS = 128


def hp_ordering(a: CSRMatrix, nparts: int = DEFAULT_PARTS, seed=0,
                refine: bool = True) -> OrderingResult:
    """Compute the HP ordering (symmetric permutation).

    Unlike the graph-based orderings, HP works on the matrix pattern
    directly (column-net model applies to unsymmetric patterns without
    symmetrisation, §3.3) — but producing a *symmetric* permutation
    requires a square matrix.
    """
    require(a.is_square, ReorderingError,
            f"HP ordering needs a square matrix, got {a.shape}")
    t0 = time.perf_counter()
    h = column_net_hypergraph(a)
    # same minimum-part-size cap as GP (see repro.reorder.gp)
    nparts = max(1, min(nparts, max(h.nvertices // 8, 1)))
    part = partition_hypergraph(h, nparts, rng=as_rng(seed), refine=refine)
    perm = perm_from_parts(part)
    return OrderingResult("HP", perm, symmetric=True,
                          seconds=time.perf_counter() - t0)


def hp_ordering_reference(a: CSRMatrix, nparts: int = DEFAULT_PARTS, seed=0,
                          refine: bool = True) -> OrderingResult:
    """HP ordering with every pipeline stage forced onto the scalar
    reference implementations (cut-net FM, heavy-connectivity matching,
    greedy initial growth)."""
    with reference_mode():
        return hp_ordering(a, nparts=nparts, seed=seed, refine=refine)
