"""Graph-partitioning ordering (paper §2.1.3 / §3.3).

Partition the (symmetrised) graph into ``nparts`` parts with the
edge-cut objective and unit vertex weights (balancing *rows*, the
paper's choice), then group rows and columns by part id.  The part
count is matched to the core count of the target CPU (16…128 in the
study); rows keep their original relative order within a part.
"""

from __future__ import annotations

import numpy as np

from ..matrix.csr import CSRMatrix
from ..partition.recursive import partition_graph
from ..util.fastpath import reference_mode
from ..util.rng import as_rng
from .base import ordering_graph
from .perm import OrderingResult

DEFAULT_PARTS = 64


def perm_from_parts(part: np.ndarray) -> np.ndarray:
    """Stable grouping permutation: sort vertices by (part, original id)."""
    part = np.asarray(part, dtype=np.int64)
    return np.argsort(part, kind="stable").astype(np.int64)


def gp_ordering(a: CSRMatrix, nparts: int = DEFAULT_PARTS, seed=0,
                refine: bool = True) -> OrderingResult:
    """Compute the GP ordering (symmetric permutation).

    Parameters
    ----------
    nparts:
        Number of parts; the paper sets this to the core count of the
        machine the SpMV will run on (§3.3).
    refine:
        FM refinement toggle, exposed for the ablation benchmarks.
    """
    g = ordering_graph(a)
    # cap the part count so every part holds at least ~8 rows: the
    # paper's matrices (>= 1M nnz) never hit this, but the scaled-down
    # corpus would otherwise request degenerate single-row parts
    nparts = max(1, min(nparts, max(g.nvertices // 8, 1)))
    part = partition_graph(g, nparts, rng=as_rng(seed), refine=refine)
    perm = perm_from_parts(part)
    return OrderingResult("GP", perm, symmetric=True)


def gp_ordering_reference(a: CSRMatrix, nparts: int = DEFAULT_PARTS, seed=0,
                          refine: bool = True) -> OrderingResult:
    """GP ordering with every pipeline stage forced onto the scalar
    reference implementations (FM refinement, heavy-edge matching,
    graph construction)."""
    with reference_mode():
        return gp_ordering(a, nparts=nparts, seed=seed, refine=refine)
