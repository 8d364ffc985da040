"""Numerically exact execution of the scheduled SpMV kernels.

Each kernel is one pass: the products are formed once and one
``np.bincount`` sums them into their rows, each row in CSR order from
zero.  The schedule only decides where partial sums split: as in the
paper's race-free 2D kernel, each thread sums its first/last (partial)
rows privately, and those rows of ``y`` restart from zero and add the
per-thread partials in thread order — bit-identical to running each
thread's segment in turn.  ``bincount`` is cast to float64: for an
empty index array it returns int64 even with ``weights=``.
"""

from __future__ import annotations

import numpy as np

from ..errors import ScheduleError
from ..matrix.csr import CSRMatrix
from .schedule import Schedule, build_schedule


def _check_x(a: CSRMatrix, x: np.ndarray, block: bool = False) -> np.ndarray:
    """Validate ``x``: shape ``(ncols,)`` (``block``: ``(ncols, k>=1)``)
    and finite.

    Solver loops (:mod:`repro.solvers`) run hundreds of SpMVs on one
    matrix; a NaN/inf that slips into ``x`` would otherwise propagate
    silently through every later iterate and stall convergence with no
    indication of where it entered.  Rejecting it here turns that
    debugging session into a typed error at the first bad call.
    """
    name, want = ("X", f"({a.ncols}, k>=1)") if block else \
        ("x", f"({a.ncols},)")
    try:
        x = np.asarray(x, dtype=np.float64)
    except (TypeError, ValueError) as e:
        raise ScheduleError(f"{name} is not convertible to float64: {e}") \
            from None
    if x.ndim != 1 + block or x.shape[0] != a.ncols or 0 in x.shape[1:]:
        raise ScheduleError(f"{name} has shape {x.shape}, expected {want}")
    if x.size and not np.all(np.isfinite(x)):
        bad = int(np.flatnonzero(~np.isfinite(x))[0])
        raise ScheduleError(
            f"{name} contains a non-finite value at {'flat ' * block}"
            f"index {bad} ({x.flat[bad]!r}); the product would silently "
            "produce NaNs")
    return x


def _check_values(a: CSRMatrix) -> None:
    """Reject matrices carrying non-finite stored values.

    The result is memoised on the matrix object (CSR arrays are
    immutable by convention, and ``CSRMatrix.__getstate__`` drops
    ``_cache_*`` attributes on pickling), so a solver loop pays the
    scan once, not once per iteration.
    """
    ok = getattr(a, "_cache_values_finite", None)
    if ok is None:
        ok = bool(a.nnz == 0 or np.all(np.isfinite(a.values)))
        object.__setattr__(a, "_cache_values_finite", ok)
    if not ok:
        bad = int(np.flatnonzero(~np.isfinite(a.values))[0])
        raise ScheduleError(
            f"matrix stores a non-finite value at entry {bad} "
            f"({a.values[bad]!r}); SpMV would silently produce NaNs")


def _boundary_partials(a: CSRMatrix, schedule: Schedule,
                       products: np.ndarray) -> tuple:
    """Each thread's boundary rows and their partial sums.

    Returns ``(rows, [(row, partial)])`` in thread order (first row,
    then last row when different).  ``products`` must be C-contiguous:
    the order in which ``.sum(axis=0)`` adds an ``(n, k)`` block
    depends on its layout.  The rows are a contiguous prefix and
    suffix of the thread's segment, so every entry of a boundary row
    lies in one of the ``(row, start, end)`` spans; those are memoised
    on the matrix per ``entry_start``, like
    :func:`~repro.spmv.schedule.get_schedule`.
    """
    cache = getattr(a, "_cache_boundary_spans", None)
    if cache is None:
        cache = {}
        object.__setattr__(a, "_cache_boundary_spans", cache)
    key = schedule.entry_start.tobytes()
    if key not in cache:
        rows, rowptr, spans = a.row_of_entry(), a.rowptr, []
        bounds = schedule.entry_start.tolist()
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if lo == hi:
                continue
            first, last = int(rows[lo]), int(rows[hi - 1])
            spans.append((first, lo, min(int(rowptr[first + 1]), hi)))
            if last != first:
                spans.append((last, int(rowptr[last]), hi))
        cache[key] = (np.array([row for row, _, _ in spans], dtype=np.int64),
                      tuple(spans))
    rows, spans = cache[key]
    return rows, [(row, products[start:end].sum(axis=0))
                  for row, start, end in spans]


def _row_sums(a: CSRMatrix, products: np.ndarray,
              boundary: tuple | None = None) -> np.ndarray:
    """Sum ``products`` (``(nnz,)`` or ``(nnz, k)``) into their rows in
    one ``bincount`` per column; then restart the ``boundary`` rows
    from zero and add their partial sums in order."""
    rows = a.row_of_entry()
    sums = [np.bincount(rows, weights=w, minlength=a.nrows)
            for w in np.atleast_2d(products.T)]
    y = sums[0] if products.ndim == 1 else np.column_stack(sums)
    # an empty index array makes bincount return int64, even with
    # weights=, and y[row] += partial would then truncate
    y = y.astype(np.float64, copy=False)
    if boundary is not None:
        y[boundary[0]] = 0.0
        for row, partial in boundary[1]:
            y[row] += partial
    return y


def spmv_1d(a: CSRMatrix, x: np.ndarray, schedule: Schedule) -> np.ndarray:
    """y = A·x with the row-split 1D schedule.  No row crosses a
    thread, so every row is summed in order from zero."""
    if schedule.kind != "1d":
        raise ScheduleError(f"expected a 1d schedule, got {schedule.kind!r}")
    x = _check_x(a, x)
    _check_values(a)
    return _row_sums(a, a.values * x[a.colidx])


def spmv_2d(a: CSRMatrix, x: np.ndarray, schedule: Schedule) -> np.ndarray:
    """y = A·x with a nonzero-split (2D) or merge-based schedule.

    Both schedules allow partial rows at thread boundaries, so they
    share the same race-free kernel structure."""
    if schedule.kind not in ("2d", "merge"):
        raise ScheduleError(
            f"expected a 2d or merge schedule, got {schedule.kind!r}")
    x = _check_x(a, x)
    _check_values(a)
    products = a.values * x[a.colidx]
    return _row_sums(a, products, _boundary_partials(a, schedule, products))


def spmv(a: CSRMatrix, x: np.ndarray, kind: str = "1d",
         nthreads: int = 1) -> np.ndarray:
    """Convenience wrapper: build the schedule and run the kernel."""
    schedule = build_schedule(a, kind, nthreads)
    return (spmv_1d if kind == "1d" else spmv_2d)(a, x, schedule)
