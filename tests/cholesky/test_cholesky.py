import numpy as np
import pytest

from repro.cholesky import (
    cholesky_nnz,
    cholesky_row_counts,
    elimination_tree,
    etree_postorder,
    fill_ratio,
)
from repro.errors import CholeskyError
from repro.generators import fem_mesh_2d, stencil_2d
from repro.matrix import csr_from_dense

from ..conftest import random_csr


def spd_pattern(n, rng, extra=3.0):
    """Random SPD matrix (dense reference obtainable)."""
    a = random_csr(n, int(extra * n), rng, symmetric=True)
    dense = a.to_dense()
    dense = dense + dense.T
    np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + 1.0)
    return csr_from_dense(dense)


def dense_cholesky_nnz(a, tol=1e-12):
    """Oracle: nnz of L via dense numeric Cholesky on an SPD-ised copy."""
    dense = a.to_dense()
    # symbolic fill: replace values to make it numerically SPD with the
    # same pattern and no accidental cancellation
    rng = np.random.default_rng(0)
    sym = (dense != 0) | (dense != 0).T
    vals = np.where(sym, rng.uniform(0.1, 1.0, dense.shape), 0.0)
    vals = (vals + vals.T) / 2
    np.fill_diagonal(vals, np.abs(vals).sum(axis=1) + 1.0)
    L = np.linalg.cholesky(vals)
    return int(np.sum(np.abs(L) > tol))


def test_etree_of_tridiagonal_is_path():
    n = 6
    dense = np.eye(n)
    for i in range(n - 1):
        dense[i, i + 1] = dense[i + 1, i] = 1.0
    parent = elimination_tree(csr_from_dense(dense))
    assert np.array_equal(parent, [1, 2, 3, 4, 5, -1])


def test_etree_of_diagonal_is_forest():
    from repro.matrix import csr_identity

    parent = elimination_tree(csr_identity(4))
    assert np.all(parent == -1)


def test_etree_of_arrow_matrix():
    # arrow: last row/col dense -> every column's parent chain ends at n-1
    n = 5
    dense = np.eye(n)
    dense[n - 1, :] = 1.0
    dense[:, n - 1] = 1.0
    parent = elimination_tree(csr_from_dense(dense))
    assert np.array_equal(parent, [4, 4, 4, 4, -1])


def test_etree_requires_symmetric():
    dense = np.zeros((3, 3))
    dense[0, 2] = 1.0
    with pytest.raises(CholeskyError):
        elimination_tree(csr_from_dense(dense))


def test_postorder_is_permutation():
    parent = np.array([2, 2, 4, 4, -1])
    post = etree_postorder(parent)
    assert sorted(post.tolist()) == list(range(5))
    # children before parents
    pos = np.empty(5, dtype=int)
    pos[post] = np.arange(5)
    for j, p in enumerate(parent):
        if p != -1:
            assert pos[j] < pos[p]


def test_postorder_cycle_detected():
    with pytest.raises(CholeskyError):
        etree_postorder(np.array([1, 0]))


def test_row_counts_tridiagonal():
    n = 5
    dense = np.eye(n)
    for i in range(n - 1):
        dense[i, i + 1] = dense[i + 1, i] = 1.0
    counts = cholesky_row_counts(csr_from_dense(dense))
    # L is bidiagonal: row 0 has 1 entry, rows 1.. have 2
    assert np.array_equal(counts, [1, 2, 2, 2, 2])


@pytest.mark.parametrize("n", [8, 15, 25])
def test_nnz_matches_dense_oracle(n, rng):
    a = spd_pattern(n, rng)
    assert cholesky_nnz(a) == dense_cholesky_nnz(a)


def test_nnz_matches_oracle_on_stencil():
    a = stencil_2d(5, seed=0)
    assert cholesky_nnz(a) == dense_cholesky_nnz(a)


def test_fill_ratio_at_least_lower_triangle():
    a = stencil_2d(6, seed=0)
    # L has at least the lower triangle of A: ratio >= ~0.5
    assert fill_ratio(a) >= 0.5


def test_fill_reducing_orderings_reduce_fill():
    from repro.reorder import amd_ordering, nd_ordering, rcm_ordering

    a = fem_mesh_2d(300, seed=1, scrambled=True)
    base = fill_ratio(a)
    assert fill_ratio(a, amd_ordering(a)) < base
    assert fill_ratio(a, nd_ordering(a)) < base
    assert fill_ratio(a, rcm_ordering(a)) < base


def test_amd_nd_beat_rcm_on_mesh():
    from repro.reorder import amd_ordering, nd_ordering, rcm_ordering

    a = fem_mesh_2d(400, seed=2, scrambled=True)
    rcm = fill_ratio(a, rcm_ordering(a))
    assert fill_ratio(a, amd_ordering(a)) < rcm
    assert fill_ratio(a, nd_ordering(a)) < rcm


def test_gray_rejected_for_cholesky():
    from repro.reorder import gray_ordering

    a = stencil_2d(5, seed=0)
    with pytest.raises(CholeskyError):
        fill_ratio(a, gray_ordering(a))


def test_fill_ratio_handles_missing_diagonal():
    dense = np.zeros((3, 3))
    dense[0, 1] = dense[1, 0] = 1.0
    ratio = fill_ratio(csr_from_dense(dense))
    assert ratio > 0


def test_postorder_invariance_of_fill():
    # postordering an elimination order must not change nnz(L)
    from repro.matrix import permute_symmetric
    from repro.cholesky.etree import elimination_tree
    from repro.cholesky.postorder import etree_postorder

    a = stencil_2d(6, seed=3)
    base = cholesky_nnz(a)
    parent = elimination_tree(a)
    post = etree_postorder(parent)
    b = permute_symmetric(a, post)
    assert cholesky_nnz(b) == base
