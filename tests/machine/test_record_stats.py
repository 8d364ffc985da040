"""The in-pass record statistics equal the per-schedule reductions.

:func:`thread_stats` computes every schedule's nonzeros-per-thread
minimum, maximum, mean and imbalance in one vectorised step.  Each
value must equal, with ``==``, what the per-record numpy reductions
give for that schedule alone.
"""

import numpy as np
import pytest

from repro.generators import build_corpus
from repro.machine.bench import thread_stats
from repro.matrix.csr import CSRMatrix
from repro.spmv.schedule import schedule_1d, schedule_2d


def _one_schedule(schedule) -> tuple:
    per_thread = schedule.nnz_per_thread()
    mean = float(per_thread.mean()) if per_thread.size else 0.0
    imb = float(per_thread.max() / mean) if mean else 1.0
    return (int(per_thread.min()) if per_thread.size else 0,
            int(per_thread.max()) if per_thread.size else 0, mean, imb)


@pytest.mark.parametrize("tier", ["tiny", "small"])
def test_thread_stats_equal_per_schedule_reductions(tier):
    empty = CSRMatrix(5, 5, np.zeros(6, dtype=np.int64),
                      np.empty(0, dtype=np.int64), np.empty(0))
    mats = [e.matrix for e in build_corpus(tier, seed=0)] + [empty]
    for a in mats:
        schedules = [build(a, t) for build in (schedule_1d, schedule_2d)
                     for t in (1, 3, 7, 16, 24, 32, 64, 128)]
        got = thread_stats(schedules)
        want = [_one_schedule(s) for s in schedules]
        assert got == want
        for row in got:
            assert [type(v) for v in row] == [int, int, float, float]


def test_thread_stats_of_no_schedules():
    assert thread_stats([]) == []
