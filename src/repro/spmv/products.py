"""Sparse products beyond single-vector SpMV: SpGEMM and SpMM.

The paper scores reorderings on one SpMV iteration; this module adds
the two product workloads whose reordering story differs:

* :func:`spgemm` — C = A·B over CSR (default B = A, the A² kernel the
  SpGEMM reordering literature studies).  Each nonzero ``(i, k)`` of A
  gathers row ``k`` of B, so the column-access locality that the
  machine model's x-gather window measures for SpMV governs the
  B-row gather stream here — which is exactly how the workload scoring
  (:mod:`repro.machine.workloads`) reuses the SpMV prediction.
* :func:`spmm` — Y = A·X for a dense block X of ``k`` vectors.  The
  matrix is streamed once for all ``k`` columns, so the relative cost
  of the streamed CSR arrays is amortised while gathers and compute
  scale with ``k``.

Both run in a deterministic reduction order (SpGEMM: vectorised numpy,
sorted segments + ``reduceat``; SpMM: the compiled CSR product and
boundary fix-up of :mod:`repro.spmv.kernels`), so runs under any
``PYTHONHASHSEED`` are bit-identical.
"""

from __future__ import annotations

import numpy as np

from ..errors import ScheduleError
from ..matrix.csr import CSRMatrix
from .kernels import _check_values, _check_x, _product
from .schedule import build_schedule


def _coalesce(nrows: int, ncols: int, rows: np.ndarray, cols: np.ndarray,
              vals: np.ndarray) -> CSRMatrix:
    """Sum duplicate (row, col) products into one CSR entry.

    The expansion phase of SpGEMM emits one partial product per
    (A-entry, B-entry) pair; several pairs can land on the same output
    coordinate and must be summed.  Sorting by (row, col) and reducing
    each run keeps the summation order deterministic.
    """
    if rows.size == 0:
        return CSRMatrix(nrows, ncols,
                         np.zeros(nrows + 1, dtype=np.int64),
                         np.zeros(0, dtype=np.int64), np.zeros(0))
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    # run boundaries of equal (row, col) pairs
    first = np.ones(rows.size, dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    starts = np.flatnonzero(first)
    out_rows = rows[starts]
    out_cols = cols[starts]
    out_vals = np.add.reduceat(vals, starts)
    rowptr = np.zeros(nrows + 1, dtype=np.int64)
    np.add.at(rowptr, out_rows + 1, 1)
    np.cumsum(rowptr, out=rowptr)
    return CSRMatrix(nrows, ncols, rowptr, out_cols.astype(np.int64),
                     out_vals)


def spgemm(a: CSRMatrix, b: CSRMatrix | None = None) -> CSRMatrix:
    """C = A·B in CSR (default ``b=None`` computes A·A).

    Fully vectorised expand–sort–reduce SpGEMM: partial products are
    materialised with a segment-gather (``repeat`` + ``cumsum`` index
    arithmetic), then coalesced by :func:`_coalesce`.  Deterministic;
    explicit zeros in the inputs produce explicit zeros in the output,
    consistent with the CSR container's semantics elsewhere.
    """
    if b is None:
        if not a.is_square:
            raise ScheduleError(
                f"spgemm(A) squares A, which needs a square matrix; "
                f"got {a.nrows}x{a.ncols}")
        b = a
    if a.ncols != b.nrows:
        raise ScheduleError(
            f"spgemm: inner dimensions differ ({a.nrows}x{a.ncols} times "
            f"{b.nrows}x{b.ncols})")
    _check_values(a)
    _check_values(b)
    if a.nnz == 0 or b.nnz == 0:
        return _coalesce(a.nrows, b.ncols, np.zeros(0, dtype=np.int64),
                         np.zeros(0, dtype=np.int64), np.zeros(0))
    b_row_len = np.diff(b.rowptr)
    counts = b_row_len[a.colidx]          # B-row length per A entry
    total = int(counts.sum())
    if total == 0:
        return _coalesce(a.nrows, b.ncols, np.zeros(0, dtype=np.int64),
                         np.zeros(0, dtype=np.int64), np.zeros(0))
    # position of each partial product inside its A-entry's segment
    seg_end = np.cumsum(counts)
    seg_start = seg_end - counts
    within = np.arange(total, dtype=np.int64) - np.repeat(seg_start, counts)
    b_idx = np.repeat(b.rowptr[a.colidx], counts) + within
    rows = np.repeat(a.row_of_entry(), counts)
    cols = b.colidx[b_idx]
    vals = np.repeat(a.values, counts) * b.values[b_idx]
    return _coalesce(a.nrows, b.ncols, rows, cols, vals)


def spgemm_flops(a: CSRMatrix, b: CSRMatrix | None = None) -> float:
    """Floating-point operations of :func:`spgemm` (2 per partial
    product) — the work term the machine model scores."""
    if b is None:
        b = a
    if a.nnz == 0 or b.nnz == 0:
        return 0.0
    return float(2.0 * np.diff(b.rowptr)[a.colidx].sum())


def spmm(a: CSRMatrix, x: np.ndarray, kind: str = "1d",
         nthreads: int = 1) -> np.ndarray:
    """Y = A·X for a dense ``(ncols, k)`` block X.

    Runs as :func:`~repro.spmv.kernels.spmv_1d` / ``spmv_2d`` do: the
    compiled CSR product sums every row of every column in CSR order,
    and for 2D the boundary rows are combined from per-thread
    partial sums in thread order — each product is a length-``k`` row
    instead of a scalar.
    """
    schedule = build_schedule(a, kind, nthreads)
    x = _check_x(a, x, block=True)
    _check_values(a)
    return _product(a, x, schedule)
