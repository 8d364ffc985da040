"""Numerically exact execution of the scheduled SpMV kernels.

Every row sum is one compiled CSR product: a ``scipy.sparse``
operator over the matrix's own arrays, memoised on the matrix, sums
each row in CSR order from zero.  The schedule only decides where
partial sums split: as in the paper's race-free 2D kernel, each
thread sums its first/last (partial) rows privately, and those rows
of ``y`` restart from zero and add the per-thread partials in thread
order — bit-identical to running each thread's segment in turn.

The partials follow numpy's ``.sum()`` order, which the bit-exact
oracle (``tests/spmv/test_kernel_bitexact.py``) pins.  A span shorter
than :data:`_SEQUENTIAL_BELOW` entries sums sequentially, so all short
spans are summed in one padded pass: their products are gathered into
a ``(longest span, spans)`` block padded with ``-0.0`` (``s + -0.0 ==
s`` for every ``s``) and added column by column.  Longer spans keep
their own ``.sum()``.  One ``np.add.at``, which applies in index
order, then adds every partial to its row in thread order.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..errors import ScheduleError
from ..matrix.csr import CSRMatrix
from .schedule import Schedule, build_schedule

#: numpy's ``.sum()`` adds a contiguous run of fewer entries than this
#: in order; from here up it switches to pairwise summation
_SEQUENTIAL_BELOW = 8


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


def _operator(a: CSRMatrix):
    """The compiled CSR product over ``a``'s arrays, memoised on ``a``.

    scipy reads ``values`` in place and may narrow copies of the index
    arrays; it never writes to any of them.  The memo drops on
    pickling, like every ``_cache_*`` attribute.  scipy is imported on
    first use: processes that never multiply (the advisor daemon)
    skip its import time.
    """
    op = getattr(a, "_cache_csr_operator", None)
    if op is None:
        import scipy.sparse as sp

        op = sp.csr_matrix((a.values, a.colidx, a.rowptr), shape=a.shape)
        object.__setattr__(a, "_cache_csr_operator", op)
    return op


class _Fixup(NamedTuple):
    """A schedule's boundary fix-up, precomputed once per matrix."""

    reset: np.ndarray     # boundary rows, zeroed before the partials
    rows: np.ndarray      # row of every span, in thread order
    short: np.ndarray     # positions (in ``rows``) of the short spans
    values: np.ndarray    # values of the short spans' entries
    cols: np.ndarray      # columns of the short spans' entries
    pad: np.ndarray       # (longest short span, short spans) gather
    #                       index into those entries; len(values) pads
    long: tuple           # (position, start, end) of every longer span


def _boundary_plan(a: CSRMatrix, schedule: Schedule) -> _Fixup:
    """Each thread's boundary spans, memoised per ``entry_start``.

    A thread's first and last rows are a contiguous prefix and suffix
    of its segment, so every entry of a boundary row lies in one of
    the ``(row, start, end)`` spans, listed first row then last row,
    thread by thread.
    """
    cache = getattr(a, "_cache_boundary_spans", None)
    if cache is None:
        cache = {}
        object.__setattr__(a, "_cache_boundary_spans", cache)
    key = schedule.entry_start.tobytes()
    plan = cache.get(key)
    if plan is None:
        plan = cache[key] = _build_plan(a, schedule.entry_start)
    return plan


def _build_plan(a: CSRMatrix, entry_start: np.ndarray) -> _Fixup:
    lo, hi = entry_start[:-1], entry_start[1:]
    lo, hi = lo[lo < hi], hi[lo < hi]
    rows_of = a.row_of_entry()
    first, last = rows_of[lo], rows_of[hi - 1]
    # (thread, {first, last}) grid, flattened in thread order
    rows = np.stack([first, last], axis=1)
    start = np.stack([lo, a.rowptr[last]], axis=1)
    end = np.stack([np.minimum(a.rowptr[first + 1], hi), hi], axis=1)
    keep = np.ones(rows.shape, dtype=bool)
    keep[:, 1] = last != first
    rows, start, end = rows[keep], start[keep], end[keep]
    length = end - start
    is_short = length < _SEQUENTIAL_BELOW
    short = np.flatnonzero(is_short)
    s_start, s_len = start[short], length[short]
    offset = np.cumsum(s_len) - s_len
    n_ent = int(s_len.sum())
    entries = (np.repeat(s_start - offset, s_len)
               + np.arange(n_ent, dtype=np.int64))
    width = int(s_len.max()) if short.size else 0
    j = np.arange(width, dtype=np.int64)[:, None]
    pad = np.where(j < s_len, offset + j, n_ent)
    longer = np.flatnonzero(~is_short)
    long = tuple(zip(longer.tolist(), start[longer].tolist(),
                     end[longer].tolist()))
    return _Fixup(np.unique(rows), rows, short, a.values[entries],
                  a.colidx[entries], pad, long)


def _boundary_partials(a: CSRMatrix, x: np.ndarray,
                       plan: _Fixup) -> tuple:
    """``(rows, partials)``: every span's row and its partial sum, in
    thread order; ``x`` is ``(ncols,)`` or ``(ncols, k)``.

    Products are formed for the spans' entries only.  The short spans
    are summed together, column by column of the padded block; each
    longer span keeps numpy's own ``.sum()``.
    """
    tail = x.shape[1:]
    col = (slice(None),) + (None,) * len(tail)
    products = np.empty((plan.values.size + 1,) + tail)
    np.multiply(plan.values[col], x[plan.cols], out=products[:-1])
    products[-1] = -0.0
    block = products[plan.pad]
    partials = np.empty((plan.rows.size,) + tail)
    if plan.short.size:
        acc = block[0]
        for column in block[1:]:
            acc += column
        partials[plan.short] = acc
    for pos, start, end in plan.long:
        partials[pos] = (a.values[start:end][col]
                         * x[a.colidx[start:end]]).sum(axis=0)
    return plan.rows, partials


def _product(a: CSRMatrix, x: np.ndarray, schedule: Schedule) -> np.ndarray:
    """``A @ x`` under ``schedule``: the compiled row sums, then for
    2D the boundary rows restart from zero and add their partials in
    thread order."""
    y = _operator(a) @ x
    if schedule.kind != "1d":
        plan = _boundary_plan(a, schedule)
        rows, partials = _boundary_partials(a, x, plan)
        y[plan.reset] = 0.0
        np.add.at(y, rows, partials)
    return y


def spmv_1d(a: CSRMatrix, x: np.ndarray, schedule: Schedule) -> np.ndarray:
    """y = A·x with the row-split 1D schedule.  No row crosses a
    thread, so every row is summed in order from zero."""
    if schedule.kind != "1d":
        raise ScheduleError(f"expected a 1d schedule, got {schedule.kind!r}")
    x = _check_x(a, x)
    _check_values(a)
    return _product(a, x, schedule)


def spmv_2d(a: CSRMatrix, x: np.ndarray, schedule: Schedule) -> np.ndarray:
    """y = A·x with the nonzero-split 2D schedule.  Partial rows at
    thread boundaries are summed per thread and combined race-free."""
    if schedule.kind != "2d":
        raise ScheduleError(f"expected a 2d schedule, got {schedule.kind!r}")
    x = _check_x(a, x)
    _check_values(a)
    return _product(a, x, schedule)


def spmv(a: CSRMatrix, x: np.ndarray, kind: str = "1d",
         nthreads: int = 1) -> np.ndarray:
    """Convenience wrapper: build the schedule and run the kernel."""
    schedule = build_schedule(a, kind, nthreads)
    return (spmv_1d if kind == "1d" else spmv_2d)(a, x, schedule)
