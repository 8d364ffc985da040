"""Kernel edge-case audit: zero rows, zero RHS, rectangles, bad input.

Regression tests for the edge cases the kernels must either handle
with well-defined results or reject with a typed ``repro.errors``
exception — never silent NaNs.
"""

import numpy as np
import pytest

from repro.errors import ScheduleError
from repro.generators import stencil_2d
from repro.matrix.build import csr_from_dense
from repro.matrix.csr import CSRMatrix
from repro.spmv import KERNELS, spmv
from repro.spmv.products import spmm
from repro.spmv.schedule import get_schedule

SEED = 20260808


def _zero_row_matrix():
    dense = np.zeros((6, 6))
    dense[0, 1] = 2.0
    dense[3, 0] = -1.0
    dense[3, 5] = 4.0          # rows 1, 2, 4, 5 are empty
    return csr_from_dense(dense)


@pytest.mark.parametrize("kind", KERNELS)
@pytest.mark.parametrize("nthreads", (1, 4, 9))
def test_zero_row_matrix_gives_zero_outputs(kind, nthreads):
    a = _zero_row_matrix()
    x = np.arange(1.0, 7.0)
    y = spmv(a, x, kind, nthreads)
    np.testing.assert_allclose(y, a.to_dense() @ x,
                               rtol=1e-12, atol=0.0)
    assert y[1] == 0.0 and y[2] == 0.0 and y[4] == 0.0 and y[5] == 0.0


@pytest.mark.parametrize("kind", KERNELS)
def test_fully_empty_matrix(kind):
    a = csr_from_dense(np.zeros((5, 5)))
    y = spmv(a, np.ones(5), kind, 3)
    np.testing.assert_array_equal(y, np.zeros(5))


@pytest.mark.parametrize("kind", KERNELS)
def test_no_entries_gives_float64_zeros(kind):
    # an empty matrix must still give float64 zeros, or a later
    # y[row] += partial would truncate
    a = csr_from_dense(np.zeros((4, 3)))
    assert a.nnz == 0
    y = spmv(a, np.ones(3), kind, 2)
    assert y.dtype == np.float64
    np.testing.assert_array_equal(y, np.zeros(4))
    block = spmm(a, np.ones((3, 2)), kind, 2)
    assert block.dtype == np.float64
    np.testing.assert_array_equal(block, np.zeros((4, 2)))


@pytest.mark.parametrize("kind", ("2d",))
def test_every_entry_a_boundary_entry(kind):
    s = stencil_2d(4, seed=0)
    # integer values keep every summation order exact
    a = CSRMatrix(s.nrows, s.ncols, s.rowptr, s.colidx,
                  np.arange(1.0, s.nnz + 1.0))
    nthreads = a.nrows + a.nnz
    schedule = get_schedule(a, kind, nthreads)
    # no thread owns more than two entries, so none has an interior row
    assert schedule.nnz_per_thread().max() <= 2
    x = np.arange(1.0, a.ncols + 1.0)
    y = spmv(a, x, kind, nthreads)
    assert y.dtype == np.float64
    np.testing.assert_array_equal(y, a.to_dense() @ x)
    xb = np.stack([x, -2.0 * x], axis=1)
    block = spmm(a, xb, kind, nthreads)
    assert block.dtype == np.float64
    np.testing.assert_array_equal(block, a.to_dense() @ xb)


@pytest.mark.parametrize("kind", KERNELS)
def test_all_zero_rhs_is_exactly_zero(kind):
    rng = np.random.default_rng(SEED)
    a = csr_from_dense(rng.random((7, 7)) * (rng.random((7, 7)) < 0.5))
    y = spmv(a, np.zeros(7), kind, 2)
    np.testing.assert_array_equal(y, np.zeros(7))


@pytest.mark.parametrize("kind", KERNELS)
@pytest.mark.parametrize("shape", ((3, 7), (7, 3)))
def test_rectangular_matrix_matches_dense(kind, shape):
    rng = np.random.default_rng(SEED)
    a = csr_from_dense(rng.random(shape) * (rng.random(shape) < 0.5))
    x = rng.standard_normal(shape[1])
    np.testing.assert_allclose(spmv(a, x, kind, 2), a.to_dense() @ x,
                               rtol=1e-12, atol=1e-14)


def test_wrong_length_x_raises_typed_error():
    a = _zero_row_matrix()
    with pytest.raises(ScheduleError, match="shape"):
        spmv(a, np.ones(a.ncols + 1))


def test_non_finite_x_raises_and_names_the_index():
    a = _zero_row_matrix()
    x = np.ones(a.ncols)
    x[3] = np.inf
    with pytest.raises(ScheduleError, match="index 3"):
        spmv(a, x)


def test_non_convertible_x_raises_typed_error():
    a = _zero_row_matrix()
    with pytest.raises(ScheduleError, match="not convertible"):
        spmv(a, ["a"] * a.ncols)


def test_non_finite_stored_values_raise_typed_error():
    a = CSRMatrix(2, 2, np.array([0, 1, 2]), np.array([0, 1]),
                  np.array([1.0, np.nan]))
    with pytest.raises(ScheduleError, match="non-finite"):
        spmv(a, np.ones(2))
    # the finiteness verdict is memoised on the matrix: still raises
    with pytest.raises(ScheduleError, match="non-finite"):
        spmv(a, np.ones(2), "2d", 2)


def test_finite_values_memo_does_not_leak_through_pickle():
    import pickle

    a = _zero_row_matrix()
    spmv(a, np.ones(a.ncols))                   # warms _cache_* memos
    spmv(a, np.ones(a.ncols), "2d", 4)
    b = pickle.loads(pickle.dumps(a))
    assert not hasattr(b, "_cache_values_finite")
    assert not hasattr(b, "_cache_boundary_spans")
    np.testing.assert_array_equal(spmv(b, np.ones(6)),
                                  spmv(a, np.ones(6)))
