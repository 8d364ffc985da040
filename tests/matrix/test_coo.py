import numpy as np
import pytest

from repro.errors import MatrixFormatError
from repro.matrix import COOMatrix, coo_from_arrays


def test_basic_construction():
    m = coo_from_arrays(3, 4, [0, 1, 2], [1, 2, 3], [1.0, 2.0, 3.0])
    assert m.shape == (3, 4)
    assert m.nnz == 3
    assert m.values.dtype == np.float64
    assert m.row.dtype == np.int64


def test_pattern_values_default_to_one():
    m = coo_from_arrays(2, 2, [0, 1], [1, 0])
    assert np.array_equal(m.values, [1.0, 1.0])


def test_out_of_range_row_rejected():
    with pytest.raises(MatrixFormatError):
        coo_from_arrays(2, 2, [0, 2], [0, 1], [1.0, 1.0])


def test_out_of_range_col_rejected():
    with pytest.raises(MatrixFormatError):
        coo_from_arrays(2, 2, [0, 1], [0, -1], [1.0, 1.0])


def test_length_mismatch_rejected():
    with pytest.raises(MatrixFormatError):
        COOMatrix(2, 2, np.array([0]), np.array([0, 1]), np.array([1.0, 2.0]))


def test_float_indices_rejected():
    with pytest.raises(MatrixFormatError):
        COOMatrix(2, 2, np.array([0.0, 1.0]), np.array([0, 1]),
                  np.array([1.0, 2.0]))


def test_transpose_swaps_coordinates():
    m = coo_from_arrays(2, 3, [0, 1], [2, 0], [5.0, 7.0])
    t = m.transpose()
    assert t.shape == (3, 2)
    assert np.array_equal(t.row, m.col)
    assert np.array_equal(t.col, m.row)


def test_to_dense_sums_duplicates():
    m = coo_from_arrays(2, 2, [0, 0], [1, 1], [1.5, 2.5])
    dense = m.to_dense()
    assert dense[0, 1] == 4.0


def test_empty_matrix():
    m = coo_from_arrays(0, 0, [], [])
    assert m.nnz == 0
    assert m.to_dense().shape == (0, 0)


def test_negative_dimensions_rejected():
    with pytest.raises(MatrixFormatError):
        COOMatrix(-1, 2, np.array([], dtype=np.int64),
                  np.array([], dtype=np.int64), np.array([]))
