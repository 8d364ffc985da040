"""Input-validation helpers.

These raise :class:`repro.errors.ReproError` subtypes with messages that
name the offending argument, so failures at the public API surface are
self-explanatory.
"""

from __future__ import annotations

import numpy as np

from ..errors import MatrixFormatError, ReproError


def require(condition: bool, exc_type, message: str) -> None:
    """Raise ``exc_type(message)`` unless ``condition`` holds.

    ``exc_type`` must derive from :class:`ReproError` — this keeps the
    promise that the library only raises its own exception hierarchy for
    anticipated misuse.
    """
    if not issubclass(exc_type, ReproError):
        raise TypeError("require() only raises ReproError subclasses")
    if not condition:
        raise exc_type(message)


def check_positive(name: str, value, exc_type=MatrixFormatError):
    """Validate that a scalar parameter is strictly positive."""
    require(value > 0, exc_type, f"{name} must be positive, got {value!r}")
    return value


def check_sorted_columns(rowptr: np.ndarray, colidx: np.ndarray,
                         exc_type=MatrixFormatError) -> None:
    """Validate the canonical-CSR column precondition.

    Every feature routine (``bandwidth``, ``profile``, ``offdiag``),
    every SpMV kernel and the reuse-statistics layer assume that within
    each row the column indices are **strictly increasing** — sorted
    and duplicate-free.  :class:`repro.matrix.csr.CSRMatrix` enforces
    this at construction through this validator, so CSR instances are
    canonical by the time they reach any consumer; code that assembles
    raw ``(rowptr, colidx)`` arrays outside the constructor (IO
    readers, converters) can call it directly.

    ``rowptr`` must already satisfy the monotonicity invariants
    (``rowptr[0] == 0``, non-decreasing); only the column ordering is
    checked here.  Raises ``exc_type`` on the first violation.
    """
    rowptr = np.asarray(rowptr, dtype=np.int64)
    colidx = np.asarray(colidx)
    nnz = colidx.size
    if nnz < 2:
        return
    # Vectorised: adjacent colidx must strictly increase except across
    # row boundaries.
    increasing = colidx[1:] > colidx[:-1]
    boundary = np.zeros(nnz, dtype=bool)
    # first entry of rows 1..nrows-1; starts equal to nnz belong to an
    # empty trailing region and mark no real entry
    starts = rowptr[1:-1]
    boundary[starts[starts < nnz]] = True
    same_row = ~boundary[1:]
    require(bool(np.all(increasing | ~same_row)), exc_type,
            "column indices must be strictly increasing within rows "
            "(sorted, duplicate-free) — canonicalize through "
            "repro.matrix.build.csr_from_coo")


def check_index_array(name: str, arr: np.ndarray, upper: int) -> np.ndarray:
    """Validate an integer index array with entries in ``[0, upper)``.

    Returns the array converted to ``int64`` (the library's canonical
    index dtype; the paper stores column offsets as 32-bit but our
    corpus sizes never overflow either way and int64 avoids silent
    wraparound in intermediate arithmetic).
    """
    arr = np.asarray(arr)
    require(
        np.issubdtype(arr.dtype, np.integer),
        MatrixFormatError,
        f"{name} must be an integer array, got dtype {arr.dtype}",
    )
    if arr.size:
        lo = int(arr.min())
        hi = int(arr.max())
        require(
            lo >= 0 and hi < upper,
            MatrixFormatError,
            f"{name} entries must lie in [0, {upper}), got range [{lo}, {hi}]",
        )
    return arr.astype(np.int64, copy=False)
