"""Separated block diagonal (SBD) ordering — Yzelman & Bisseling 2009.

Cited in paper §2.1.3: a cache-oblivious SpMV ordering derived from
recursive *hypergraph* bisection.  Rows are recursively bisected with
the column-net model; at every bisection the rows are laid out as
[part 0 | part 1], and the *columns* are laid out as
[cols only touched by part 0 | cut columns | cols only touched by
part 1] — placing the shared (cut) columns in a separator block between
the two pure blocks.  Recursing yields the separated-block-diagonal
form, whose nested structure keeps the active part of x small at every
scale regardless of cache size.

Unlike the paper's six main orderings, SBD is inherently two-sided and
unsymmetric (row and column permutations differ).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ReorderingError
from ..graph.hypergraph import column_net_hypergraph
from ..hpartition.multilevel import hbisect
from ..matrix.csr import CSRMatrix
from ..util.rng import as_rng
from ..util.validate import require


@dataclass(frozen=True)
class SBDResult:
    """Two-sided SBD reordering."""

    row_perm: np.ndarray
    col_perm: np.ndarray

    def apply(self, a: CSRMatrix) -> CSRMatrix:
        from ..matrix.permute import permute_csr

        return permute_csr(a, self.row_perm, self.col_perm)


def _recurse(a: CSRMatrix, rows: np.ndarray, cols: np.ndarray,
             min_rows: int, rng, row_out: list, col_blocks: list) -> None:
    """Emit rows in SBD order; collect column blocks as (key, cols) so
    the caller can interleave separators."""
    if rows.size <= min_rows or cols.size == 0:
        row_out.append(rows)
        col_blocks.append(cols)
        return
    # restrict to the submatrix (rows x cols)
    sub = _submatrix(a, rows, cols)
    h = column_net_hypergraph(sub)
    side = hbisect(h, rng=rng)
    r0 = rows[np.flatnonzero(side == 0)]
    r1 = rows[np.flatnonzero(side == 1)]
    if r0.size == 0 or r1.size == 0:
        row_out.append(rows)
        col_blocks.append(cols)
        return
    # classify columns: touched only by side 0, only side 1, or cut
    touched0 = np.zeros(cols.size, dtype=bool)
    touched1 = np.zeros(cols.size, dtype=bool)
    sub_rows = sub.row_of_entry()
    on0 = side[sub_rows] == 0
    touched0[np.unique(sub.colidx[on0])] = True
    touched1[np.unique(sub.colidx[~on0])] = True
    pure0 = cols[touched0 & ~touched1]
    pure1 = cols[~touched0 & touched1]
    cut = cols[touched0 & touched1]
    untouched = cols[~touched0 & ~touched1]
    _recurse(a, r0, pure0, min_rows, rng, row_out, col_blocks)
    col_blocks.append(cut)
    _recurse(a, r1, pure1, min_rows, rng, row_out, col_blocks)
    if untouched.size:
        col_blocks.append(untouched)


def _submatrix(a: CSRMatrix, rows: np.ndarray,
               cols: np.ndarray) -> CSRMatrix:
    """Extract the (rows × cols) submatrix with local indices."""
    from ..matrix.build import coo_from_arrays, csr_from_coo

    col_local = np.full(a.ncols, -1, dtype=np.int64)
    col_local[cols] = np.arange(cols.size, dtype=np.int64)
    rs = []
    cs = []
    for local_r, r in enumerate(rows):
        c, _ = a.row_slice(int(r))
        lc = col_local[c]
        keep = lc >= 0
        cs.append(lc[keep])
        rs.append(np.full(int(keep.sum()), local_r, dtype=np.int64))
    rows_arr = (np.concatenate(rs) if rs else np.empty(0, dtype=np.int64))
    cols_arr = (np.concatenate(cs) if cs else np.empty(0, dtype=np.int64))
    return csr_from_coo(coo_from_arrays(rows.size, cols.size,
                                        rows_arr, cols_arr))


def sbd_ordering(a: CSRMatrix, min_rows: int = 32, seed=0) -> SBDResult:
    """Compute the separated-block-diagonal reordering of ``a``."""
    require(a.nrows > 0 and a.ncols > 0, ReorderingError,
            "SBD needs a non-empty matrix")
    rng = as_rng(seed)
    row_out: list = []
    col_blocks: list = []
    _recurse(a, np.arange(a.nrows, dtype=np.int64),
             np.arange(a.ncols, dtype=np.int64), min_rows, rng,
             row_out, col_blocks)
    row_perm = np.concatenate(row_out) if row_out else np.empty(
        0, dtype=np.int64)
    col_perm = np.concatenate(col_blocks) if col_blocks else np.empty(
        0, dtype=np.int64)
    # defensive completion (empty rows/cols never touched)
    from .base import complete_partial_order

    row_perm = complete_partial_order(row_perm, a.nrows)
    col_perm = complete_partial_order(col_perm, a.ncols)
    return SBDResult(row_perm=row_perm, col_perm=col_perm)
