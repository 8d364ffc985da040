"""Thread work division for the 1D and 2D CSR SpMV algorithms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ScheduleError
from ..matrix.csr import CSRMatrix
from ..obs.metrics import REGISTRY
from ..util.validate import require
from .registry import KERNELS


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
        ``"1d"`` or ``"2d"`` (:data:`~repro.spmv.registry.KERNELS`).
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
        require(self.kind in KERNELS, ScheduleError,
                f"unknown kernel kind {self.kind!r}; expected one of "
                f"{KERNELS}")
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

    @classmethod
    def _trusted(cls, kind: str, nthreads: int, entry_start: np.ndarray,
                 row_start: np.ndarray) -> "Schedule":
        """Wrap ``int64`` boundaries that :func:`build_schedules` has
        already checked, batch-wide, without a per-schedule check."""
        s = object.__new__(cls)
        object.__setattr__(s, "kind", kind)
        object.__setattr__(s, "nthreads", nthreads)
        object.__setattr__(s, "entry_start", entry_start)
        object.__setattr__(s, "row_start", row_start)
        return s

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


_BUILDS = REGISTRY.counter("schedule.builds")
_HITS = REGISTRY.counter("schedule.hits")


def get_schedule(a: CSRMatrix, kind: str, nthreads: int) -> Schedule:
    """Memoised :func:`schedule_1d` / :func:`schedule_2d` per (matrix,
    kind, nthreads): the one-key case of :func:`get_schedules`."""
    return get_schedules(a, [(kind, nthreads)])[0]


def get_schedules(a: CSRMatrix, keys) -> list:
    """The schedule of every ``(kind, nthreads)`` in ``keys``, in order,
    memoised per matrix; the keys not yet memoised are built in one
    :func:`build_schedules` call.

    A sweep evaluates the same matrix under eight architectures whose
    core counts overlap, and the performance model is deterministic in
    (kind, nthreads), so identical schedules were being rebuilt per
    cell.  The cache lives on the matrix object itself (dropped by
    ``CSRMatrix.__getstate__`` on pickling, so worker fan-out does not
    ship it) and schedules are immutable, so sharing is safe.  Each
    distinct key built counts one ``schedule.builds``; every other key
    counts one ``schedule.hits``, as if looked up one at a time.
    """
    cache = getattr(a, "_cache_schedules", None)
    if cache is None:
        cache = {}
        object.__setattr__(a, "_cache_schedules", cache)
    keys = [(kind, int(nthreads)) for kind, nthreads in keys]
    missing = [k for k in dict.fromkeys(keys) if k not in cache]
    if missing:
        cache.update(zip(missing, build_schedules(a, missing)))
        _BUILDS.inc(len(missing))
    if len(keys) > len(missing):
        _HITS.inc(len(keys) - len(missing))
    return [cache[k] for k in keys]


def build_schedules(a: CSRMatrix, keys) -> list:
    """The schedule of every ``(kind, nthreads)`` in ``keys``, built in
    one call, bit-identical to :func:`schedule_1d`/:func:`schedule_2d`.

    All the schedules' boundaries are computed as one concatenated
    array.  The equal splits repeat ``np.linspace(0, n, T + 1)``'s
    float64 arithmetic (``k * (n / T)``, endpoint pinned to ``n``; ``n``
    is ``nrows`` for 1D, ``nnz`` for 2D) before the cast to ``int64``;
    the 1D entry starts are one gather from ``rowptr`` and the 2D row
    starts one ``searchsorted``.  One vectorised test then checks every
    schedule's invariants (entry 0 first, non-decreasing ranges), in
    place of a :class:`Schedule` constructor check per schedule.
    """
    keys = list(keys)
    for kind, nthreads in keys:
        if kind not in _BUILDERS:
            raise ScheduleError(f"unknown kernel kind {kind!r}")
        if nthreads < 1:
            raise ScheduleError(f"nthreads must be >= 1, got {nthreads}")
    if not keys:
        return []
    seg_1d = np.array([kind == "1d" for kind, _ in keys])
    tcounts = np.array([int(nthreads) for _, nthreads in keys])
    n = np.where(seg_1d, a.nrows, a.nnz)
    ends = np.cumsum(tcounts + 1)
    starts = ends - tcounts - 1
    seg = np.repeat(np.arange(len(keys)), tcounts + 1)
    k = np.arange(ends[-1]) - starts[seg]
    splits = k * (n / tcounts)[seg]
    splits[ends - 1] = n
    bounds = splits.astype(np.int64)
    on_1d = seg_1d[seg]
    entry_start = np.where(on_1d, a.rowptr[np.where(on_1d, bounds, 0)],
                           bounds)
    # 2D: the row containing entry e is the last row whose rowptr <= e
    # (never past nrows: searchsorted into nrows + 1 starts)
    row_start = np.where(on_1d, bounds,
                         np.searchsorted(a.rowptr, bounds, side="right") - 1)
    row_start[starts] = 0
    row_start[ends - 1] = a.nrows
    steps = (entry_start[1:] - entry_start[:-1],
             row_start[1:] - row_start[:-1])
    for d in steps:
        d[ends[:-1] - 1] = 0  # across schedules, not within one
    require(not entry_start[starts].any()
            and min(d.min() for d in steps) >= 0,
            ScheduleError, "a batched schedule breaks the schedule "
            "invariants (first entry 0, non-decreasing ranges)")
    return [Schedule._trusted(kind, nthreads, entry_start[lo:hi],
                              row_start[lo:hi])
            for (kind, _), nthreads, lo, hi
            in zip(keys, tcounts.tolist(), starts.tolist(), ends.tolist())]


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


_BUILDERS = {"1d": schedule_1d, "2d": schedule_2d}


def build_schedule(a: CSRMatrix, kind: str, nthreads: int) -> Schedule:
    """The ``kind`` (``"1d"`` or ``"2d"``) schedule."""
    if kind not in _BUILDERS:
        raise ScheduleError(f"unknown kernel kind {kind!r}")
    return _BUILDERS[kind](a, nthreads)
