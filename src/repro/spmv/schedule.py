"""Thread work division for the 1D and 2D CSR SpMV algorithms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ScheduleError
from ..matrix.csr import CSRMatrix
from ..obs.metrics import REGISTRY
from ..util.validate import require


@dataclass(frozen=True)
class Schedule:
    """A static thread schedule over a CSR matrix.

    Thread ``t`` owns the half-open entry range
    ``[entry_start[t], entry_start[t+1])`` of the CSR arrays.  For the
    1D schedule the boundaries coincide with row starts; for the 2D
    schedule they may fall inside a row (partial rows).

    Attributes
    ----------
    kind:
        ``"1d"`` or ``"2d"``.
    nthreads:
        Number of threads.
    entry_start:
        ``int64`` array of length ``nthreads + 1``.
    row_start:
        Row containing the first entry of each thread's range (length
        ``nthreads + 1``; the final element is ``nrows``).
    """

    kind: str
    nthreads: int
    entry_start: np.ndarray
    row_start: np.ndarray

    def __post_init__(self) -> None:
        require(self.nthreads >= 1, ScheduleError,
                f"nthreads must be >= 1, got {self.nthreads}")
        es = np.asarray(self.entry_start, dtype=np.int64)
        rs = np.asarray(self.row_start, dtype=np.int64)
        require(es.shape == (self.nthreads + 1,), ScheduleError,
                "entry_start must have length nthreads+1")
        require(rs.shape == (self.nthreads + 1,), ScheduleError,
                "row_start must have length nthreads+1")
        require(es[0] == 0, ScheduleError, "entry_start[0] must be 0")
        require(bool(np.all(np.diff(es) >= 0)), ScheduleError,
                "entry ranges must be non-decreasing")
        require(bool(np.all(np.diff(rs) >= 0)), ScheduleError,
                "row ranges must be non-decreasing")
        object.__setattr__(self, "entry_start", es)
        object.__setattr__(self, "row_start", rs)

    def nnz_per_thread(self) -> np.ndarray:
        """Entries owned by each thread (length ``nthreads``)."""
        return np.diff(self.entry_start)

    def active_threads(self) -> np.ndarray:
        """Boolean mask (length ``nthreads``) of threads owning at least
        one row or one entry.

        When ``nthreads > nrows`` the static splits leave trailing
        threads with empty shares; those are not part of the actual
        thread partition and must not enter partition statistics such
        as the imbalance factor.  A thread owning only *empty* rows is
        still active — its share of the row partition is real, its
        work just happens to be zero.
        """
        return (np.diff(self.row_start) > 0) | (np.diff(self.entry_start) > 0)

    def thread_entry_range(self, t: int) -> tuple:
        return int(self.entry_start[t]), int(self.entry_start[t + 1])


def schedule_1d(a: CSRMatrix, nthreads: int) -> Schedule:
    """Equal *row* split: thread t gets rows [t·M/T, (t+1)·M/T).

    This is what ``#pragma omp for schedule(static)`` over the row loop
    produces (paper §3.1).
    """
    if nthreads < 1:
        raise ScheduleError(f"nthreads must be >= 1, got {nthreads}")
    bounds = np.linspace(0, a.nrows, nthreads + 1).astype(np.int64)
    entry_start = a.rowptr[bounds]
    return Schedule(kind="1d", nthreads=nthreads,
                    entry_start=entry_start, row_start=bounds)


def schedule_merge(a: CSRMatrix, nthreads: int) -> Schedule:
    """Merge-based split (Merrill & Garland [PPoPP 2016], paper §3.1).

    The paper's 2D kernel is "a simplified version of the merge-based
    SpMV kernel": where 2D balances *nonzeros* only, merge-based
    balances the combined merge path of row boundaries and nonzeros
    (length ``nrows + nnz``), so threads with many empty/short rows get
    proportionally fewer nonzeros.  Each thread's split point is found
    by binary search on the merge-path diagonal.
    """
    if nthreads < 1:
        raise ScheduleError(f"nthreads must be >= 1, got {nthreads}")
    m, nnz = a.nrows, a.nnz
    total = m + nnz
    entry_start = np.zeros(nthreads + 1, dtype=np.int64)
    row_start = np.zeros(nthreads + 1, dtype=np.int64)
    rowptr = a.rowptr
    for t in range(1, nthreads):
        d = (t * total) // nthreads
        lo, hi = max(0, d - nnz), min(d, m)
        # consume a row-end (A-step) while rowptr[i+1] <= d-1-i
        while lo < hi:
            mid = (lo + hi) // 2
            if rowptr[mid + 1] <= d - 1 - mid:
                lo = mid + 1
            else:
                hi = mid
        row_start[t] = lo
        entry_start[t] = d - lo
    row_start[nthreads] = m
    entry_start[nthreads] = nnz
    return Schedule(kind="merge", nthreads=nthreads,
                    entry_start=entry_start, row_start=row_start)


_BUILDS = REGISTRY.counter("schedule.builds")
_HITS = REGISTRY.counter("schedule.hits")


def get_schedule(a: CSRMatrix, kind: str, nthreads: int) -> Schedule:
    """Memoised :func:`schedule_1d` / :func:`schedule_2d` /
    :func:`schedule_merge` per (matrix, kind, nthreads).

    A sweep evaluates the same matrix under eight architectures whose
    core counts overlap, and the performance model is deterministic in
    (kind, nthreads), so identical schedules were being rebuilt per
    cell.  The cache lives on the matrix object itself (dropped by
    ``CSRMatrix.__getstate__`` on pickling, so worker fan-out does not
    ship it) and schedules are immutable, so sharing is safe.
    """
    cache = getattr(a, "_cache_schedules", None)
    if cache is None:
        cache = {}
        object.__setattr__(a, "_cache_schedules", cache)
    key = (kind, int(nthreads))
    schedule = cache.get(key)
    if schedule is not None:
        _HITS.inc()
        return schedule
    schedule = cache[key] = build_schedule(a, kind, nthreads)
    _BUILDS.inc()
    return schedule


def schedule_2d(a: CSRMatrix, nthreads: int) -> Schedule:
    """Equal *nonzero* split: thread t gets entries [t·K/T, (t+1)·K/T).

    Boundary rows are shared between adjacent threads (partial rows);
    ``row_start[t]`` records the row containing each thread's first
    entry so kernels can reconstruct the row structure locally.
    """
    if nthreads < 1:
        raise ScheduleError(f"nthreads must be >= 1, got {nthreads}")
    entry_start = np.linspace(0, a.nnz, nthreads + 1).astype(np.int64)
    # row containing entry e: last row whose rowptr <= e
    row_start = np.searchsorted(a.rowptr, entry_start, side="right") - 1
    row_start = np.minimum(row_start, a.nrows)
    row_start[-1] = a.nrows
    row_start[0] = 0
    return Schedule(kind="2d", nthreads=nthreads,
                    entry_start=entry_start, row_start=row_start)


_BUILDERS = {"1d": schedule_1d, "2d": schedule_2d, "merge": schedule_merge}


def build_schedule(a: CSRMatrix, kind: str, nthreads: int) -> Schedule:
    """The ``kind`` (``"1d"``, ``"2d"`` or ``"merge"``) schedule."""
    if kind not in _BUILDERS:
        raise ScheduleError(f"unknown kernel kind {kind!r}")
    return _BUILDERS[kind](a, nthreads)
