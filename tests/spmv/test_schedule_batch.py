"""The batched schedule build equals the one-schedule builders.

:func:`build_schedules` computes every (kind, nthreads) schedule of a
matrix in one call and checks them in one vectorised test; each result
must equal :func:`schedule_1d` / :func:`schedule_2d`, which build one
schedule through the validating :class:`Schedule` constructor, bit for
bit.
"""

import numpy as np
import pytest

from repro.errors import ScheduleError
from repro.generators import build_corpus
from repro.matrix.csr import CSRMatrix
from repro.obs.metrics import REGISTRY
from repro.spmv.schedule import (build_schedules, get_schedules,
                                 schedule_1d, schedule_2d)

from ..conftest import random_csr

THREADS = range(1, 129)
SINGLE = {"1d": schedule_1d, "2d": schedule_2d}


def _edge_matrices():
    empty = CSRMatrix(5, 5, np.zeros(6, dtype=np.int64),
                      np.empty(0, dtype=np.int64), np.empty(0))
    one = CSRMatrix(1, 1, np.array([0, 1]), np.array([0]),
                    np.array([2.0]))
    zero = CSRMatrix(0, 0, np.zeros(1, dtype=np.int64),
                     np.empty(0, dtype=np.int64), np.empty(0))
    return [("5x5-nnz0", empty), ("1x1", one), ("0x0", zero)]


def _assert_same(got, want):
    assert (got.kind, got.nthreads) == (want.kind, want.nthreads)
    assert got.entry_start.dtype == want.entry_start.dtype == np.int64
    assert got.row_start.dtype == want.row_start.dtype == np.int64
    assert got.entry_start.tobytes() == want.entry_start.tobytes()
    assert got.row_start.tobytes() == want.row_start.tobytes()


@pytest.fixture(scope="module", params=["tiny", "small", "edge"])
def matrices(request):
    if request.param == "edge":
        return _edge_matrices()
    return [(e.name, e.matrix) for e in build_corpus(request.param, seed=0)]


def test_batched_build_matches_single_builders(matrices):
    keys = [(kind, t) for t in THREADS for kind in ("1d", "2d")]
    for name, a in matrices:
        for (kind, t), got in zip(keys, build_schedules(a, keys)):
            _assert_same(got, SINGLE[kind](a, t))


def test_batched_build_rejects_bad_keys(rng):
    a = random_csr(10, 30, rng)
    with pytest.raises(ScheduleError):
        build_schedules(a, [("1d", 4), ("3d", 4)])
    with pytest.raises(ScheduleError):
        build_schedules(a, [("2d", 0)])


def test_batched_check_catches_a_broken_rowptr():
    # an unchecked matrix whose rowptr decreases: the one vectorised
    # test still refuses the 1D schedules built from it
    bad = CSRMatrix._trusted(4, 4, np.array([0, 3, 1, 2, 4]),
                             np.array([0, 1, 2, 3]), np.ones(4))
    with pytest.raises(ScheduleError, match="invariants"):
        build_schedules(bad, [("2d", 2), ("1d", 4)])


def test_get_schedules_counts_like_single_lookups(rng):
    a = random_csr(40, 200, rng)
    before = REGISTRY.values()
    keys = [("1d", 4), ("2d", 4), ("1d", 4), ("1d", 8)]
    first = get_schedules(a, keys)
    after = REGISTRY.values()
    assert after["schedule.builds"] - before["schedule.builds"] == 3
    assert after["schedule.hits"] - before["schedule.hits"] == 1
    assert first[0] is first[2]
    again = get_schedules(a, [("1d", 8), ("2d", 4)])
    assert again == [first[3], first[1]]
    assert REGISTRY.values()["schedule.builds"] == after["schedule.builds"]
    assert REGISTRY.values()["schedule.hits"] == after["schedule.hits"] + 2
