"""Gray code ordering of Zhao et al. [ICCD 2020] (paper §2.1.4).

Using the parameters the paper adopts (§3.3): rows with more than 20
nonzeros are *dense*, the rest *sparse*; sparse rows are ordered by the
Gray-code rank of a 16-bit row bitmap; dense rows are ordered by
descending nonzero count (density reordering).  The matrix is split
[dense block; sparse block] and only the rows are permuted — the
ordering is unsymmetric.

Rationale (from the original work): density grouping makes the inner
SpMV loop trip counts predictable (fewer branch mispredictions), and
Gray-code ordering places rows with similar column *sections* next to
each other so consecutive rows touch overlapping parts of x.
"""

from __future__ import annotations

import numpy as np

from ..matrix.csr import CSRMatrix
from ..util.fastpath import fast_enabled
from .perm import OrderingResult

DENSE_ROW_THRESHOLD = 20
BITMAP_BITS = 16


def row_bitmaps(a: CSRMatrix, bits: int = BITMAP_BITS) -> np.ndarray:
    """Bitmap per row: bit k set iff the row has a nonzero whose column
    falls into the k-th of ``bits`` equal column sections."""
    if a.ncols == 0 or a.nnz == 0:
        return np.zeros(a.nrows, dtype=np.int64)
    section = (a.colidx * bits) // max(a.ncols, 1)
    section = np.minimum(section, bits - 1)
    words = np.int64(1) << section
    bitmaps = np.zeros(a.nrows, dtype=np.int64)
    if fast_enabled():
        # segment-reduce per nonempty row: consecutive nonempty row
        # starts are exact reduceat boundaries (empty rows stay 0)
        nonempty = a.row_lengths() > 0
        starts = a.rowptr[:-1][nonempty]
        bitmaps[nonempty] = np.bitwise_or.reduceat(words, starts)
    else:
        np.bitwise_or.at(bitmaps, a.row_of_entry(), words)
    return bitmaps


def gray_rank(codes: np.ndarray, bits: int = BITMAP_BITS) -> np.ndarray:
    """Position of each value in the ``bits``-bit Gray code sequence.

    The inverse Gray transform: b ^= b>>1; b ^= b>>2; ... doubling shifts
    until the word is covered.
    """
    rank = np.asarray(codes, dtype=np.int64).copy()
    shift = 1
    while shift < bits:
        rank ^= rank >> shift
        shift <<= 1
    return rank


def gray_ordering(a: CSRMatrix, dense_threshold: int = DENSE_ROW_THRESHOLD,
                  bits: int = BITMAP_BITS) -> OrderingResult:
    """Compute the Gray row ordering (row-only permutation)."""
    lengths = a.row_lengths()
    dense_rows = np.flatnonzero(lengths > dense_threshold)
    sparse_rows = np.flatnonzero(lengths <= dense_threshold)
    # dense block first, ordered by descending density (ties: row id)
    dense_order = dense_rows[np.lexsort(
        (dense_rows, -lengths[dense_rows]))]
    # sparse block ordered by Gray rank of the row bitmap
    bitmaps = row_bitmaps(a, bits=bits)
    ranks = gray_rank(bitmaps[sparse_rows], bits=bits)
    sparse_order = sparse_rows[np.lexsort((sparse_rows, ranks))]
    perm = np.concatenate([dense_order, sparse_order])
    return OrderingResult("Gray", perm, symmetric=False)


def gray_ordering_reference(a: CSRMatrix,
                            dense_threshold: int = DENSE_ROW_THRESHOLD,
                            bits: int = BITMAP_BITS) -> OrderingResult:
    """Plain-Python scalar Gray ordering (differential-testing oracle).

    Gray always was numpy-vectorised; this scalar twin follows the PR 5
    oracle convention so the vectorised path has an independent
    implementation to be checked against: per-entry bitmap assembly,
    scalar inverse-Gray rank, and ``sorted`` with explicit key tuples
    in place of ``lexsort``.
    """
    nrows, ncols = a.nrows, a.ncols
    rowptr = a.rowptr.tolist()
    colidx = a.colidx.tolist()
    lengths = [rowptr[i + 1] - rowptr[i] for i in range(nrows)]
    bitmaps = [0] * nrows
    if ncols > 0:
        for i in range(nrows):
            bm = 0
            for p in range(rowptr[i], rowptr[i + 1]):
                section = (colidx[p] * bits) // ncols
                if section > bits - 1:
                    section = bits - 1
                bm |= 1 << section
            bitmaps[i] = bm

    def rank_of(code: int) -> int:
        rank = code
        shift = 1
        while shift < bits:
            rank ^= rank >> shift
            shift <<= 1
        return rank

    dense = sorted((i for i in range(nrows) if lengths[i] > dense_threshold),
                   key=lambda i: (-lengths[i], i))
    sparse = sorted((i for i in range(nrows) if lengths[i] <= dense_threshold),
                    key=lambda i: (rank_of(bitmaps[i]), i))
    perm = np.array(dense + sparse, dtype=np.int64)
    return OrderingResult("Gray", perm, symmetric=False)
