"""SpGEMM and SpMM against dense oracles, plus their typed failures."""

import numpy as np
import pytest

from repro.errors import ScheduleError
from repro.matrix.build import csr_from_dense
from repro.generators import fem_mesh_2d, stencil_2d
from repro.spmv import KERNELS, spgemm, spgemm_flops, spmm

SEED = 20260808


def _matrices():
    return [
        ("stencil", stencil_2d(7, 6, seed=SEED)),
        ("fem", fem_mesh_2d(50, seed=SEED + 1)),
    ]


MATRICES = _matrices()
IDS = [m[0] for m in MATRICES]


@pytest.mark.parametrize("name,a", MATRICES, ids=IDS)
def test_spgemm_squares_matrix_matches_dense(name, a):
    c = spgemm(a)
    d = a.to_dense()
    np.testing.assert_allclose(c.to_dense(), d @ d,
                               rtol=1e-10, atol=1e-12)


def test_spgemm_general_product_matches_dense():
    rng = np.random.default_rng(SEED)
    a = csr_from_dense(rng.random((5, 7)) * (rng.random((5, 7)) < 0.4))
    b = csr_from_dense(rng.random((7, 4)) * (rng.random((7, 4)) < 0.4))
    c = spgemm(a, b)
    assert c.shape == (5, 4)
    np.testing.assert_allclose(c.to_dense(), a.to_dense() @ b.to_dense(),
                               rtol=1e-10, atol=1e-12)


def test_spgemm_rejects_rectangular_square_and_dim_mismatch():
    rng = np.random.default_rng(SEED)
    rect = csr_from_dense(rng.random((3, 5)))
    with pytest.raises(ScheduleError, match="square"):
        spgemm(rect)
    other = csr_from_dense(rng.random((4, 4)))
    with pytest.raises(ScheduleError, match="inner dimensions"):
        spgemm(rect, other)  # 3x5 times 4x4


def test_spgemm_empty_operand_gives_empty_product():
    empty = csr_from_dense(np.zeros((4, 4)))
    c = spgemm(empty)
    assert c.nnz == 0
    assert c.shape == (4, 4)
    assert spgemm_flops(empty) == 0.0


def test_spgemm_flops_counts_partial_products():
    a = MATRICES[0][1]
    b_row_len = np.diff(a.rowptr)
    expected = 2.0 * float(b_row_len[a.colidx].sum())
    assert spgemm_flops(a) == expected
    assert spgemm_flops(a) >= 2.0 * a.nnz  # diagonal present in stencils


def test_spgemm_is_deterministic():
    a = MATRICES[1][1]
    c1, c2 = spgemm(a), spgemm(a)
    np.testing.assert_array_equal(c1.values, c2.values)
    np.testing.assert_array_equal(c1.colidx, c2.colidx)
    np.testing.assert_array_equal(c1.rowptr, c2.rowptr)


@pytest.mark.parametrize("kind", KERNELS)
@pytest.mark.parametrize("nthreads", (1, 3, 8))
@pytest.mark.parametrize("name,a", MATRICES, ids=IDS)
def test_spmm_matches_dense_block_product(name, a, kind, nthreads):
    rng = np.random.default_rng(SEED)
    x = rng.standard_normal((a.ncols, 4))
    y = spmm(a, x, kind, nthreads)
    np.testing.assert_allclose(y, a.to_dense() @ x,
                               rtol=1e-10, atol=1e-12)


def test_spmm_rectangular_matrix():
    rng = np.random.default_rng(SEED)
    a = csr_from_dense(rng.random((3, 7)) * (rng.random((3, 7)) < 0.5))
    x = rng.standard_normal((7, 2))
    y = spmm(a, x)
    assert y.shape == (3, 2)
    np.testing.assert_allclose(y, a.to_dense() @ x,
                               rtol=1e-10, atol=1e-12)


def test_spmm_rejects_bad_blocks():
    a = MATRICES[0][1]
    rng = np.random.default_rng(SEED)
    with pytest.raises(ScheduleError, match="shape"):
        spmm(a, rng.standard_normal(a.ncols))          # 1-D, not a block
    with pytest.raises(ScheduleError, match="shape"):
        spmm(a, rng.standard_normal((a.ncols + 1, 2)))  # wrong row count
    bad = rng.standard_normal((a.ncols, 2))
    bad[1, 1] = np.nan
    with pytest.raises(ScheduleError, match="non-finite"):
        spmm(a, bad)
    with pytest.raises(ScheduleError, match="kernel kind"):
        spmm(a, rng.standard_normal((a.ncols, 2)), kind="3d")


def test_spmm_single_column_matches_spmv():
    from repro.spmv import spmv

    a = MATRICES[0][1]
    rng = np.random.default_rng(SEED)
    x = rng.standard_normal(a.ncols)
    y = spmm(a, x[:, None], "1d", 2)
    np.testing.assert_array_equal(y[:, 0], spmv(a, x, "1d", 2))
