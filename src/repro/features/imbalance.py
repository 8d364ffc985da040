"""Load imbalance factor (paper §3.2).

``max(nonzeros per thread) / mean(nonzeros per thread)`` for a given
schedule: 1.0 means perfectly balanced.  The 2D schedule is balanced by
construction (its factor is ~1.0 up to integer rounding, paper
footnote 1); the 1D schedule's factor is a genuine matrix feature.

The paper defines the factor over the *actual* thread partition, so
threads that own no rows and no entries — which the static splits
produce whenever ``nthreads > nrows`` — are excluded from both the max
and the mean (:meth:`~repro.spmv.schedule.Schedule.active_threads`).
Without the exclusion, empty shares dilute the mean and the factor
grows with the thread count even for perfectly balanced matrices.
"""

from __future__ import annotations

from ..matrix.csr import CSRMatrix
from ..spmv.schedule import Schedule, schedule_1d


def imbalance_factor(schedule: Schedule) -> float:
    """Max-over-mean nonzeros per thread, over *active* threads only.

    Returns 1.0 for degenerate partitions (no active thread, or zero
    nonzeros overall) — a partition with no work is trivially balanced.
    """
    active = schedule.active_threads()
    if not bool(active.any()):
        return 1.0
    per_thread = schedule.nnz_per_thread()[active]
    mean = per_thread.mean()
    if mean == 0:
        return 1.0
    return float(per_thread.max() / mean)


def imbalance_factor_1d(a: CSRMatrix, nthreads: int) -> float:
    """Imbalance of the 1D row split with ``nthreads`` threads."""
    return imbalance_factor(schedule_1d(a, nthreads))
