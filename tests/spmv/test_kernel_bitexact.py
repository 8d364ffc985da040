"""The single-pass kernels are bit-identical to a per-thread loop.

The oracle below executes every simulated thread's entry range in
turn: interior rows through ``np.add.at`` from zero, the 2D/merge
boundary rows as per-thread ``.sum()`` partials added in thread order.
The production kernels must reproduce it bit for bit — ``allclose``
elsewhere in the suite would not notice a changed summation order.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.generators import build_corpus
from repro.matrix.csr import CSRMatrix
from repro.solvers import iterative
from repro.spmv import spmv_1d, spmv_2d
from repro.spmv.products import spmm
from repro.spmv.schedule import get_schedule

THREADS = (1, 3, 16, 72)


def _oracle(a, x, schedule):
    """Per-thread loop over ``x`` of shape ``(ncols,)`` or ``(ncols, k)``."""
    y = np.zeros((a.nrows,) + x.shape[1:])
    rows_all = a.row_of_entry()
    boundary = []
    for t in range(schedule.nthreads):
        lo, hi = schedule.thread_entry_range(t)
        if lo == hi:
            continue
        seg_rows = rows_all[lo:hi]
        products = (a.values[lo:hi].reshape((-1,) + (1,) * (x.ndim - 1))
                    * x[a.colidx[lo:hi]])
        if schedule.kind == "1d":
            np.add.at(y, seg_rows, products)
            continue
        first, last = int(seg_rows[0]), int(seg_rows[-1])
        interior = (seg_rows != first) & (seg_rows != last)
        np.add.at(y, seg_rows[interior], products[interior])
        boundary.append((first, products[seg_rows == first].sum(axis=0)))
        if last != first:
            boundary.append((last, products[seg_rows == last].sum(axis=0)))
    for row, val in boundary:
        y[row] += val
    return y


def _kernel(a, x, schedule):
    return (spmv_1d if schedule.kind == "1d" else spmv_2d)(a, x, schedule)


@pytest.fixture(scope="module")
def corpus():
    return [e.matrix for e in build_corpus("tiny", seed=0)]


@pytest.mark.parametrize("nthreads", THREADS)
@pytest.mark.parametrize("kind", ("1d", "2d", "merge"))
def test_spmv_bit_identical_to_per_thread_loop(corpus, kind, nthreads):
    rng = np.random.default_rng(nthreads)
    for a in corpus:
        x = rng.standard_normal(a.ncols)
        s = get_schedule(a, kind, nthreads)
        y = _kernel(a, x, s)
        assert y.dtype == np.float64
        np.testing.assert_array_equal(y, _oracle(a, x, s))


@pytest.mark.parametrize("nthreads", THREADS)
@pytest.mark.parametrize("kind", ("1d", "2d", "merge"))
def test_spmm_bit_identical_to_per_thread_loop(corpus, kind, nthreads):
    rng = np.random.default_rng(nthreads)
    for a in corpus:
        x = rng.standard_normal((a.ncols, 3))
        y = spmm(a, x, kind, nthreads)
        assert y.dtype == np.float64
        np.testing.assert_array_equal(
            y, _oracle(a, x, get_schedule(a, kind, nthreads)))


def _spd(a):
    """A diagonally dominant SPD matrix on ``a``'s symmetrised pattern."""
    m = abs(a.to_scipy())
    w = (m + m.T) * 0.5
    w = (w - sp.diags(w.diagonal())).tocsr()
    w.eliminate_zeros()
    s = (sp.diags(1.05 * np.asarray(w.sum(axis=1)).ravel() + 0.05)
         - w).tocsr()
    s.sort_indices()
    return CSRMatrix(s.shape[0], s.shape[1], s.indptr.astype(np.int64),
                     s.indices.astype(np.int64), s.data.copy())


@pytest.mark.parametrize("kind", ("1d", "2d", "merge"))
@pytest.mark.parametrize("solver", ("cg", "jacobi"))
def test_solver_iterates_bit_identical(corpus, monkeypatch, solver, kind):
    systems = [_spd(a) for a in corpus
               if a.is_square and a.nrows <= 2000][:4]
    assert systems
    fast = [iterative.SOLVERS[solver](s, seed=1, kind=kind, nthreads=16)
            for s in systems]
    monkeypatch.setattr(iterative, "_apply", _oracle)
    for s, res in zip(systems, fast):
        ref = iterative.SOLVERS[solver](s, seed=1, kind=kind, nthreads=16)
        assert res.iterations == ref.iterations
        np.testing.assert_array_equal(res.iterates, ref.iterates)
        np.testing.assert_array_equal(res.residual_norms,
                                      ref.residual_norms)
