"""Applying permutations to sparse matrices.

Terminology matches :mod:`repro.reorder.perm`: a permutation ``p`` is an
array where ``p[k]`` is the *original* index of the row placed at
position ``k`` in the reordered matrix ("new-to-old" convention, the one
used by scipy and SuiteSparse).  Symmetric permutation applies ``p`` to
both rows and columns (PAPᵀ); row permutation applies it to rows only
(PA), which is what the Gray ordering produces (paper §3.3).
"""

from __future__ import annotations

import numpy as np

from ..errors import PermutationError
from .csr import CSRMatrix


def _check_perm(p: np.ndarray, n: int) -> np.ndarray:
    p = np.asarray(p, dtype=np.int64)
    if p.shape != (n,):
        raise PermutationError(f"permutation has length {p.size}, expected {n}")
    seen = np.zeros(n, dtype=bool)
    if p.size and (p.min() < 0 or p.max() >= n):
        raise PermutationError("permutation entries out of range")
    seen[p] = True
    if not bool(seen.all()):
        raise PermutationError("permutation is not a bijection")
    return p


def invert_permutation(p: np.ndarray) -> np.ndarray:
    """Return the inverse permutation (old-to-new from new-to-old)."""
    p = np.asarray(p, dtype=np.int64)
    inv = np.empty_like(p)
    inv[p] = np.arange(p.size, dtype=np.int64)
    return inv


def _gather_rows(a: CSRMatrix, p: np.ndarray) -> tuple:
    """``(rowptr, src)`` of ``PA``: ``src[j]`` is the position in ``a``
    of the entry stored at position ``j`` of ``PA``."""
    lengths = a.row_lengths()[p]
    rowptr = np.zeros(a.nrows + 1, dtype=np.int64)
    np.cumsum(lengths, out=rowptr[1:])
    # entry j of new row k sits at a.rowptr[p[k]] + (j - rowptr[k]) in a
    src = (np.repeat(a.rowptr[p] - rowptr[:-1], lengths)
           + np.arange(a.nnz, dtype=np.int64))
    return rowptr, src


def permute_rows(a: CSRMatrix, row_perm: np.ndarray) -> CSRMatrix:
    """Return ``PA``: row ``row_perm[k]`` of ``a`` becomes row ``k``.

    This is cheap in CSR — gather the row slices in the new order.
    """
    return apply_bijection(a, _check_perm(row_perm, a.nrows), False)


def _permute_two_sided(a: CSRMatrix, p: np.ndarray,
                       col_inv: np.ndarray) -> CSRMatrix:
    """Gather rows in the order ``p``, relabel columns through
    ``col_inv`` (old-to-new), then restore sorted columns per row.

    ``a`` has strictly increasing columns per row, so the result has no
    duplicate (row, col) pairs and one sort on ``row * ncols + col``
    suffices — no COO rebuild or duplicate reduction.  The keys are
    unique, so a stable sort gives the same order as any other; it is
    the faster one here because the keys arrive as sorted runs (the
    rows are already in place).  ``p`` and ``col_inv`` are checked
    bijections, so the result is canonical and built unchecked.
    """
    rowptr, src = _gather_rows(a, p)
    cols = col_inv[a.colidx[src]]
    rows = np.repeat(np.arange(a.nrows, dtype=np.int64), np.diff(rowptr))
    order = np.argsort(rows * a.ncols + cols, kind="stable")
    return CSRMatrix._trusted(a.nrows, a.ncols, rowptr, cols[order],
                              a.values[src[order]])


def permute_symmetric(a: CSRMatrix, perm: np.ndarray) -> CSRMatrix:
    """Return ``PAPᵀ`` for square ``a`` (rows and columns both permuted).

    Column relabelling breaks the sorted-columns invariant, so the
    gathered rows are re-sorted (O(nnz log nnz)).
    """
    if not a.is_square:
        raise PermutationError("symmetric permutation requires a square matrix")
    return apply_bijection(a, _check_perm(perm, a.nrows), True)


def apply_bijection(a: CSRMatrix, p: np.ndarray,
                    symmetric: bool) -> CSRMatrix:
    """``PAPᵀ`` (``symmetric``) or ``PA`` for ``p`` already known to be
    an ``int64`` bijection of its own length — an
    :class:`~repro.reorder.perm.OrderingResult`'s frozen permutation.
    Only the fit to ``a`` is checked; the bijection check is not
    repeated.  ``PA`` moves whole rows, so each keeps its sorted
    columns and the result is built unchecked."""
    if p.shape != (a.nrows,):
        raise PermutationError(
            f"permutation has length {p.size}, expected {a.nrows}")
    if symmetric:
        if not a.is_square:
            raise PermutationError(
                "symmetric permutation requires a square matrix")
        return _permute_two_sided(a, p, invert_permutation(p))
    rowptr, src = _gather_rows(a, p)
    return CSRMatrix._trusted(a.nrows, a.ncols, rowptr, a.colidx[src],
                              a.values[src])


def permute_csr(a: CSRMatrix, row_perm: np.ndarray,
                col_perm: np.ndarray) -> CSRMatrix:
    """General two-sided permutation with independent row/column orders."""
    rp = _check_perm(row_perm, a.nrows)
    cp = _check_perm(col_perm, a.ncols)
    return _permute_two_sided(a, rp, invert_permutation(cp))
