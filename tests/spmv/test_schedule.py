import numpy as np
import pytest

from repro.errors import ScheduleError
from repro.generators import circuit_matrix, stencil_2d
from repro.spmv import schedule_1d, schedule_2d

from ..conftest import random_csr


@pytest.mark.parametrize("nthreads", [1, 2, 7, 16])
def test_1d_covers_all_rows(rng, nthreads):
    a = random_csr(50, 300, rng)
    s = schedule_1d(a, nthreads)
    assert s.row_start[0] == 0
    assert s.row_start[-1] == a.nrows
    assert s.entry_start[-1] == a.nnz
    assert s.nnz_per_thread().sum() == a.nnz


@pytest.mark.parametrize("nthreads", [1, 2, 7, 16])
def test_2d_covers_all_entries(rng, nthreads):
    a = random_csr(50, 300, rng)
    s = schedule_2d(a, nthreads)
    assert s.entry_start[0] == 0
    assert s.entry_start[-1] == a.nnz
    assert s.nnz_per_thread().sum() == a.nnz


def test_1d_rows_evenly_split(rng):
    a = random_csr(64, 200, rng)
    s = schedule_1d(a, 8)
    rows_per = np.diff(s.row_start)
    assert rows_per.max() - rows_per.min() <= 1


def test_2d_nnz_evenly_split(rng):
    a = random_csr(64, 512, rng)
    s = schedule_2d(a, 8)
    per = s.nnz_per_thread()
    assert per.max() - per.min() <= 1


def test_2d_balances_skewed_matrix():
    from repro.features import imbalance_factor

    a = circuit_matrix(600, rail_rows=4, rail_fanout=0.3, seed=0,
                       scrambled=False)
    s1 = schedule_1d(a, 16)
    s2 = schedule_2d(a, 16)
    assert imbalance_factor(s2) < imbalance_factor(s1)
    assert imbalance_factor(s2) < 1.1


def test_1d_imbalance_on_dense_row():
    a = circuit_matrix(600, rail_rows=2, rail_fanout=0.4, seed=0,
                       scrambled=False)
    from repro.features import imbalance_factor_1d

    assert imbalance_factor_1d(a, 16) > 1.5


def test_invalid_nthreads(rng):
    a = random_csr(10, 20, rng)
    with pytest.raises(ScheduleError):
        schedule_1d(a, 0)
    with pytest.raises(ScheduleError):
        schedule_2d(a, 0)


def test_more_threads_than_rows():
    a = stencil_2d(3, seed=0)  # 9 rows
    s = schedule_1d(a, 32)
    assert s.nnz_per_thread().sum() == a.nnz
    s2 = schedule_2d(a, 32)
    assert s2.nnz_per_thread().sum() == a.nnz


def test_2d_row_start_points_into_matrix(rng):
    a = random_csr(40, 160, rng)
    s = schedule_2d(a, 6)
    rows = a.row_of_entry()
    for t in range(6):
        lo, hi = s.thread_entry_range(t)
        if lo < hi:
            assert rows[lo] == s.row_start[t]


def test_schedule_validation():
    from repro.spmv.schedule import Schedule

    with pytest.raises(ScheduleError):
        Schedule(kind="1d", nthreads=2,
                 entry_start=np.array([0, 5]),  # wrong length
                 row_start=np.array([0, 1, 2]))
    with pytest.raises(ScheduleError):
        Schedule(kind="1d", nthreads=1,
                 entry_start=np.array([1, 5]),  # must start at 0
                 row_start=np.array([0, 2]))


@pytest.mark.parametrize("kind", ["merge", "3d"])
def test_schedule_rejects_unknown_kind(rng, kind):
    # a hand-built schedule of an unregistered kind must not reach the
    # kernels or the performance model
    from repro.spmv.schedule import Schedule

    s = schedule_2d(random_csr(20, 80, rng), 4)
    with pytest.raises(ScheduleError, match=f"unknown kernel kind "
                                            f"'{kind}'"):
        Schedule(kind=kind, nthreads=s.nthreads,
                 entry_start=s.entry_start, row_start=s.row_start)


def test_get_schedule_memoises_per_matrix(rng):
    from repro.obs.metrics import REGISTRY
    from repro.spmv.schedule import get_schedule

    a = random_csr(40, 200, rng)
    before = REGISTRY.values()
    s1 = get_schedule(a, "1d", 4)
    assert REGISTRY.values()["schedule.builds"] == \
        before["schedule.builds"] + 1
    assert get_schedule(a, "1d", 4) is s1
    assert REGISTRY.values()["schedule.hits"] == \
        before["schedule.hits"] + 1
    # a different kind or thread count is its own cache entry
    s2 = get_schedule(a, "2d", 4)
    s3 = get_schedule(a, "1d", 8)
    assert s2 is not s1 and s3 is not s1
    # cached schedule equals a direct build
    direct = schedule_1d(a, 4)
    assert np.array_equal(s1.entry_start, direct.entry_start)
    assert np.array_equal(s1.row_start, direct.row_start)
    # the cache is per matrix object
    b = random_csr(40, 200, rng)
    assert get_schedule(b, "1d", 4) is not s1


def test_get_schedule_unknown_kind(rng):
    from repro.spmv.schedule import get_schedule

    a = random_csr(10, 30, rng)
    with pytest.raises(ScheduleError):
        get_schedule(a, "3d", 4)


def test_schedule_cache_not_pickled(rng):
    import pickle

    from repro.spmv.schedule import get_schedule

    a = random_csr(20, 80, rng)
    get_schedule(a, "1d", 4)
    b = pickle.loads(pickle.dumps(a))
    assert getattr(b, "_cache_schedules", None) is None
