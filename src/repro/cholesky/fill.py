"""Cholesky fill ratio per ordering (paper Figure 6).

``fill_ratio = nnz(L) / nnz(A)`` where A = LLᵀ, counting the full
symmetric A (both triangles plus diagonal) as the paper does, and L's
lower triangle including the diagonal.  Orderings are applied
symmetrically before the symbolic analysis; the Gray ordering is
excluded (it is unsymmetric and cannot precondition a Cholesky
factorisation, §4.6).
"""

from __future__ import annotations

import numpy as np

from ..errors import CholeskyError
from ..matrix.csr import CSRMatrix
from ..matrix.symmetry import is_pattern_symmetric, symmetrize_pattern
from ..reorder.perm import OrderingResult
from .rowcounts import cholesky_nnz


def fill_ratio(a: CSRMatrix, ordering: OrderingResult | None = None) -> float:
    """nnz(L)/nnz(A) for ``a`` under ``ordering`` (None = original).

    ``a``'s pattern is symmetrised if needed; a diagonal is implicitly
    assumed present (SPD matrices always have one — rows without one
    get it added during symmetrisation of the analysis pattern).
    """
    if ordering is not None and not ordering.symmetric:
        raise CholeskyError(
            f"{ordering.algorithm} is not a symmetric ordering and cannot "
            "be used for Cholesky factorisation")
    pattern = a if is_pattern_symmetric(a) else symmetrize_pattern(a)
    # ensure a full diagonal so the etree is well defined
    diag_missing = np.flatnonzero(pattern.diagonal() == 0)
    if diag_missing.size:
        from ..matrix.build import coo_from_arrays, csr_from_coo

        rows = np.concatenate([pattern.row_of_entry(), diag_missing])
        cols = np.concatenate([pattern.colidx, diag_missing])
        pattern = csr_from_coo(
            coo_from_arrays(pattern.nrows, pattern.ncols, rows, cols))
    if ordering is not None:
        pattern = ordering.apply(pattern)
    nnz_l = cholesky_nnz(pattern)
    return float(nnz_l / pattern.nnz)
