"""TSP-based locality ordering (paper §2.1.4 / §5 related work).

Pinar & Heath [SC '99] and Pichel et al. formulate row ordering as a
travelling-salesperson problem: consecutive rows should share as many
column accesses as possible, so the "distance" between rows i and j is
the number of columns in exactly one of the two rows (symmetric
difference), and a short tour is a cache-friendly row order.

Exact TSP is hopeless; like the cited works we use a greedy
nearest-neighbour construction followed by 2-opt improvement, both
restricted to a candidate neighbour set (rows sharing a column) so the
cost stays near-linear for sparse matrices.
"""

from __future__ import annotations

import numpy as np

from ..matrix.csr import CSRMatrix
from ..util.rng import as_rng
from .perm import OrderingResult


def _row_similarity_candidates(a: CSRMatrix, max_per_col: int = 64):
    """For each row, the set of rows sharing >= 1 column (via columns).

    Columns with more than ``max_per_col`` entries are skipped — they
    make everything a neighbour of everything and add no signal.
    """
    rows = a.row_of_entry()
    order = np.argsort(a.colidx, kind="stable")
    sorted_cols = a.colidx[order]
    sorted_rows = rows[order]
    starts = np.searchsorted(sorted_cols, np.arange(a.ncols + 1))
    neighbours: list = [set() for _ in range(a.nrows)]
    for c in range(a.ncols):
        members = sorted_rows[starts[c]:starts[c + 1]]
        if members.size < 2 or members.size > max_per_col:
            continue
        m = members.tolist()
        for r in m:
            neighbours[r].update(m)
    for r in range(a.nrows):
        neighbours[r].discard(r)
    return neighbours


def _shared_count(a: CSRMatrix, i: int, j: int) -> int:
    ci, _ = a.row_slice(i)
    cj, _ = a.row_slice(j)
    return int(np.intersect1d(ci, cj, assume_unique=True).size)


def tsp_ordering(a: CSRMatrix, two_opt_passes: int = 1,
                 seed=0) -> OrderingResult:
    """Greedy nearest-neighbour + bounded 2-opt row ordering.

    Row-only permutation (like Gray); maximises shared columns between
    consecutive rows, i.e. minimises the TSP tour under the
    symmetric-difference distance.
    """
    n = a.nrows
    rng = as_rng(seed)
    if n == 0:
        return OrderingResult("TSP", np.empty(0, dtype=np.int64), False)
    neighbours = _row_similarity_candidates(a)
    visited = np.zeros(n, dtype=bool)
    tour = np.empty(n, dtype=np.int64)
    current = int(rng.integers(0, n))
    visited[current] = True
    tour[0] = current
    for k in range(1, n):
        best = -1
        best_shared = -1
        for cand in neighbours[current]:
            if not visited[cand]:
                s = _shared_count(a, current, int(cand))
                if s > best_shared:
                    best_shared = s
                    best = int(cand)
        if best < 0:
            # tour stuck: jump to the first unvisited row
            best = int(np.flatnonzero(~visited)[0])
        tour[k] = best
        visited[best] = True
        current = best
    # bounded 2-opt: try reversing segments between candidate pairs
    for _ in range(two_opt_passes):
        improved = False
        pos = np.empty(n, dtype=np.int64)
        pos[tour] = np.arange(n)
        for i in range(n - 2):
            r = int(tour[i])
            for cand in neighbours[r]:
                j = int(pos[cand])
                if j <= i + 1 or j >= n - 1:
                    continue
                # gain of reversing tour[i+1..j]
                before = (_shared_count(a, r, int(tour[i + 1]))
                          + _shared_count(a, int(tour[j]),
                                          int(tour[j + 1])))
                after = (_shared_count(a, r, int(tour[j]))
                         + _shared_count(a, int(tour[i + 1]),
                                         int(tour[j + 1])))
                if after > before:
                    tour[i + 1:j + 1] = tour[i + 1:j + 1][::-1]
                    pos[tour] = np.arange(n)
                    improved = True
        if not improved:
            break
    return OrderingResult("TSP", tour, symmetric=False)
