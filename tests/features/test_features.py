import numpy as np
import pytest

from repro.features import (
    bandwidth,
    imbalance_factor,
    offdiagonal_nonzeros,
    profile,
)
from repro.generators import banded_matrix, stencil_2d
from repro.matrix import csr_from_dense, csr_identity, permute_symmetric

from ..conftest import random_csr


def test_bandwidth_diagonal_is_zero():
    assert bandwidth(csr_identity(5)) == 0


def test_bandwidth_known():
    dense = np.zeros((4, 4))
    dense[0, 3] = 1.0
    assert bandwidth(csr_from_dense(dense)) == 3


def test_bandwidth_empty():
    from repro.matrix import coo_from_arrays, csr_from_coo

    assert bandwidth(csr_from_coo(coo_from_arrays(3, 3, [], []))) == 0


def test_bandwidth_of_banded_matrix():
    a = banded_matrix(50, 4, density=1.0, seed=0)
    assert bandwidth(a) == 4


def test_profile_known():
    # row 0: leftmost 0 -> 0; row 1: leftmost 0 -> 1; row 2: leftmost 2 -> 0
    dense = np.array([
        [1.0, 0.0, 0.0],
        [1.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
    ])
    assert profile(csr_from_dense(dense)) == 1


def test_profile_clamps_upper_rows():
    dense = np.array([[0.0, 1.0], [0.0, 1.0]])
    # row 0: leftmost 1 > 0 -> clamp 0; row 1: leftmost 1 -> 0
    assert profile(csr_from_dense(dense)) == 0


def test_profile_identity_zero():
    assert profile(csr_identity(6)) == 0


def test_rcm_reduces_profile():
    from repro.reorder import rcm_ordering

    a = stencil_2d(16, seed=0, scrambled=True)
    r = rcm_ordering(a)
    assert profile(r.apply(a)) < profile(a)


def test_offdiag_block_diagonal_is_zero():
    # block diagonal matrix with 2 blocks of size 2
    dense = np.array([
        [1.0, 1.0, 0.0, 0.0],
        [1.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 1.0],
        [0.0, 0.0, 1.0, 1.0],
    ])
    assert offdiagonal_nonzeros(csr_from_dense(dense), 2) == 0


def test_offdiag_counts_cross_block():
    dense = np.zeros((4, 4))
    dense[0, 3] = 1.0
    dense[3, 0] = 1.0
    assert offdiagonal_nonzeros(csr_from_dense(dense), 2) == 2


def test_offdiag_one_block_is_zero(rng):
    a = random_csr(20, 100, rng)
    assert offdiagonal_nonzeros(a, 1) == 0


def test_offdiag_invalid_blocks(rng):
    from repro.errors import MatrixFormatError

    a = random_csr(5, 10, rng)
    with pytest.raises(MatrixFormatError):
        offdiagonal_nonzeros(a, 0)


def test_offdiag_matches_edge_cut_of_row_split():
    # for a symmetric pattern with zero-free diagonal blocks of equal
    # size, offdiag == 2x edge cut of the contiguous partition
    from repro.graph import graph_from_matrix
    from repro.partition.metrics import edge_cut

    a = stencil_2d(12, seed=0, scrambled=True, spd=False)
    g = graph_from_matrix(a)
    k = 4
    bounds = np.linspace(0, a.nrows, k + 1).astype(np.int64)
    part = np.searchsorted(bounds, np.arange(a.nrows), side="right") - 1
    assert offdiagonal_nonzeros(a, k) == 2 * edge_cut(g, part)


def test_imbalance_uniform_is_one(rng):
    from repro.spmv import schedule_2d

    a = random_csr(64, 640, rng)
    assert imbalance_factor(schedule_2d(a, 8)) <= 1.02


def test_imbalance_factor_known():
    from repro.spmv.schedule import Schedule

    s = Schedule(kind="1d", nthreads=2,
                 entry_start=np.array([0, 30, 40]),
                 row_start=np.array([0, 5, 10]))
    assert imbalance_factor(s) == 30 / 20


def test_imbalance_more_threads_than_rows():
    # 3 balanced rows split over 8 threads: 5 shares are empty.  Those
    # threads are not part of the partition, so the factor must match
    # the 3-thread split instead of being diluted by the empty shares.
    from repro.features import imbalance_factor_1d
    from repro.spmv import schedule_1d

    dense = np.ones((3, 3))
    a = csr_from_dense(dense)
    assert imbalance_factor_1d(a, 8) == pytest.approx(1.0)
    assert imbalance_factor_1d(a, 8) == imbalance_factor_1d(a, 3)
    s = schedule_1d(a, 8)
    assert int(s.active_threads().sum()) == 3


def test_imbalance_empty_rows_keep_thread_active():
    # thread 1 owns rows 2..3 which are both empty: it stays in the
    # partition (0 nnz share), so max/mean = 4 / 2 = 2
    from repro.matrix import coo_from_arrays, csr_from_coo
    from repro.spmv import schedule_1d

    a = csr_from_coo(coo_from_arrays(
        4, 4, [0, 0, 1, 1], [0, 1, 0, 1]))
    s = schedule_1d(a, 2)
    assert list(s.active_threads()) == [True, True]
    assert imbalance_factor(s) == pytest.approx(2.0)


def test_imbalance_zero_nnz_matrix_is_balanced():
    from repro.features import imbalance_factor_1d
    from repro.matrix import coo_from_arrays, csr_from_coo

    a = csr_from_coo(coo_from_arrays(4, 4, [], []))
    assert imbalance_factor_1d(a, 8) == 1.0


def test_schedule_1d_more_threads_than_rows_covers_all_rows():
    from repro.spmv import schedule_1d

    dense = np.ones((3, 5))
    a = csr_from_dense(dense)
    s = schedule_1d(a, 8)
    assert int(s.row_start[-1]) == 3
    assert int(s.entry_start[-1]) == a.nnz
    assert int(s.nnz_per_thread().sum()) == a.nnz


def test_features_ignore_explicit_zeros():
    # an explicitly stored zero far off the diagonal must not widen the
    # band/envelope or count as a cut edge: the CSR path must agree
    # with the dense round trip (which drops exact zeros)
    from repro.matrix.csr import CSRMatrix

    a = CSRMatrix(4, 4,
                  np.array([0, 2, 3, 4, 5]),
                  np.array([0, 3, 1, 2, 3]),
                  np.array([1.0, 0.0, 1.0, 1.0, 1.0]))
    assert a.has_explicit_zeros()
    b = csr_from_dense(a.to_dense())
    assert bandwidth(a) == bandwidth(b) == 0
    assert profile(a) == profile(b)
    assert offdiagonal_nonzeros(a, 2) == offdiagonal_nonzeros(b, 2) == 0


def test_drop_explicit_zeros_roundtrip(rng):
    from repro.matrix.csr import CSRMatrix

    a = random_csr(12, 60, rng)
    values = a.values.copy()
    values[::4] = 0.0
    dirty = CSRMatrix(a.nrows, a.ncols, a.rowptr, a.colidx, values)
    clean = dirty.drop_explicit_zeros()
    assert not clean.has_explicit_zeros()
    assert np.array_equal(clean.to_dense(), dirty.to_dense())
    # clean matrices are returned as-is
    assert clean.drop_explicit_zeros() is clean


def test_features_invariant_under_identity_perm(rng):
    a = random_csr(25, 100, rng)
    b = permute_symmetric(a, np.arange(25))
    assert bandwidth(a) == bandwidth(b)
    assert profile(a) == profile(b)
    assert offdiagonal_nonzeros(a, 5) == offdiagonal_nonzeros(b, 5)
