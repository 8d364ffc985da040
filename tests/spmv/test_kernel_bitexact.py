"""The single-pass kernels are bit-identical to a per-thread loop.

The oracle below executes every simulated thread's entry range in
turn: interior rows through ``np.add.at`` from zero, the 2D boundary
rows as per-thread ``.sum()`` partials added in thread order.
The production kernels must reproduce it bit for bit — ``allclose``
elsewhere in the suite would not notice a changed summation order, and
the outputs are compared as bytes, so neither would a changed sign of
zero.
"""

import pickle

import numpy as np
import pytest
import scipy.sparse as sp

from repro.generators import build_corpus, stencil_2d
from repro.matrix.csr import CSRMatrix
from repro.solvers import iterative
from repro.spmv import KERNELS, spmv_1d, spmv_2d
from repro.spmv.products import spmm
from repro.spmv.schedule import build_schedule, get_schedule

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


def _assert_same_bytes(y, ref):
    """Equal as float64 bit patterns: ``-0.0`` differs from ``0.0``."""
    assert y.dtype == np.float64 and y.shape == ref.shape
    np.testing.assert_array_equal(y.view(np.uint64), ref.view(np.uint64))


def _check_spmv(corpus, kind, nthreads):
    rng = np.random.default_rng(nthreads)
    for a in corpus:
        x = rng.standard_normal(a.ncols)
        s = get_schedule(a, kind, nthreads)
        _assert_same_bytes(_kernel(a, x, s), _oracle(a, x, s))


def _check_spmm(corpus, kind, nthreads):
    rng = np.random.default_rng(nthreads)
    for a in corpus:
        x = rng.standard_normal((a.ncols, 3))
        _assert_same_bytes(spmm(a, x, kind, nthreads),
                           _oracle(a, x, get_schedule(a, kind, nthreads)))


@pytest.fixture(scope="module")
def corpus():
    return [e.matrix for e in build_corpus("tiny", seed=0)]


@pytest.fixture(scope="module")
def small_corpus():
    return [e.matrix for e in build_corpus("small", seed=0)]


@pytest.mark.parametrize("nthreads", THREADS)
@pytest.mark.parametrize("kind", KERNELS)
def test_spmv_bit_identical_to_per_thread_loop(corpus, kind, nthreads):
    _check_spmv(corpus, kind, nthreads)


@pytest.mark.parametrize("nthreads", THREADS)
@pytest.mark.parametrize("kind", KERNELS)
def test_spmm_bit_identical_to_per_thread_loop(corpus, kind, nthreads):
    _check_spmm(corpus, kind, nthreads)


@pytest.mark.parametrize("nthreads", THREADS)
@pytest.mark.parametrize("kind", KERNELS)
def test_spmv_bit_identical_on_the_small_tier(small_corpus, kind, nthreads):
    _check_spmv(small_corpus, kind, nthreads)


@pytest.mark.parametrize("nthreads", THREADS)
@pytest.mark.parametrize("kind", KERNELS)
def test_spmm_bit_identical_on_the_small_tier(small_corpus, kind, nthreads):
    _check_spmm(small_corpus, kind, nthreads)


@pytest.mark.parametrize("kind", ("2d",))
def test_partials_keep_sum_order_at_every_span_length(kind):
    # values spread over 40 binary orders of magnitude make every
    # change of summation order visible in the low bits; sweeping the
    # thread count gives boundary spans of every length from 1 up,
    # either side of the length where .sum() turns pairwise
    rng = np.random.default_rng(7)
    s = stencil_2d(12, seed=0)
    a = CSRMatrix(s.nrows, s.ncols, s.rowptr, s.colidx,
                  rng.standard_normal(s.nnz)
                  * np.exp2(rng.integers(-20, 20, s.nnz)))
    x = rng.standard_normal(a.ncols)
    xb = rng.standard_normal((a.ncols, 1))
    for nthreads in range(2, 60):
        sched = build_schedule(a, kind, nthreads)
        _assert_same_bytes(_kernel(a, x, sched), _oracle(a, x, sched))
        _assert_same_bytes(spmm(a, xb, kind, nthreads),
                           _oracle(a, xb, sched))


@pytest.mark.parametrize("kind", ("2d",))
def test_zero_products_sum_to_positive_zero(kind):
    # x of signed zeros makes every product +-0.0, so each boundary
    # row's partials are zeros too: the fix-up must restart the row
    # from +0.0 and its padding must add nothing, as the oracle does
    rng = np.random.default_rng(11)
    s = stencil_2d(12, seed=0)
    a = CSRMatrix(s.nrows, s.ncols, s.rowptr, s.colidx,
                  -np.abs(rng.standard_normal(s.nnz)))
    x = np.where(rng.random(a.ncols) < 0.5, 0.0, -0.0)
    for nthreads in range(2, 60, 3):
        sched = build_schedule(a, kind, nthreads)
        _assert_same_bytes(_kernel(a, x, sched), _oracle(a, x, sched))
        _assert_same_bytes(spmm(a, x[:, None], kind, nthreads),
                           _oracle(a, x[:, None], sched))


def test_pickled_matrix_carries_no_compiled_operator(corpus):
    a = corpus[0]
    x = np.ones(a.ncols)
    y = spmv_2d(a, x, get_schedule(a, "2d", 16))
    assert hasattr(a, "_cache_csr_operator")
    b = pickle.loads(pickle.dumps(a))
    assert not [k for k in vars(b) if k.startswith("_cache_")]
    _assert_same_bytes(spmv_2d(b, x, get_schedule(b, "2d", 16)), y)


@pytest.mark.parametrize("kind", KERNELS)
def test_spmv_leaves_the_matrix_arrays_unchanged(kind):
    a = build_corpus("tiny", seed=3)[1].matrix
    before = [arr.tobytes() for arr in (a.rowptr, a.colidx, a.values)]
    x = np.random.default_rng(0).standard_normal(a.ncols)
    for nthreads in (1, 16):
        _kernel(a, x, get_schedule(a, kind, nthreads))
        spmm(a, np.stack([x, -x], axis=1), kind, nthreads)
    after = [arr.tobytes() for arr in (a.rowptr, a.colidx, a.values)]
    assert after == before


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


@pytest.mark.parametrize("kind", KERNELS)
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
