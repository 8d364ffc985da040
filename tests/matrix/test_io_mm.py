import io

import numpy as np
import pytest

from repro.errors import MatrixFormatError
from repro.matrix import read_matrix_market, write_matrix_market

from ..conftest import random_csr


def roundtrip(a):
    buf = io.StringIO()
    write_matrix_market(a, buf)
    buf.seek(0)
    return read_matrix_market(buf)


def test_roundtrip_random(rng):
    a = random_csr(20, 80, rng, ncols=30)
    b = roundtrip(a)
    assert b.shape == a.shape
    assert np.allclose(a.to_dense(), b.to_dense())


def test_roundtrip_empty():
    from repro.matrix import coo_from_arrays, csr_from_coo

    a = csr_from_coo(coo_from_arrays(3, 3, [], []))
    b = roundtrip(a)
    assert b.nnz == 0 and b.shape == (3, 3)


def test_read_pattern_matrix():
    text = """%%MatrixMarket matrix coordinate pattern general
3 3 2
1 2
3 1
"""
    a = read_matrix_market(text)
    assert a.nnz == 2
    assert a.to_dense()[0, 1] == 1.0
    assert a.to_dense()[2, 0] == 1.0


def test_read_symmetric_expands():
    text = """%%MatrixMarket matrix coordinate real symmetric
3 3 3
1 1 5.0
2 1 2.0
3 2 4.0
"""
    a = read_matrix_market(text)
    dense = a.to_dense()
    assert dense[0, 0] == 5.0
    assert dense[1, 0] == 2.0 and dense[0, 1] == 2.0
    assert dense[2, 1] == 4.0 and dense[1, 2] == 4.0
    assert a.nnz == 5


def test_read_skew_symmetric():
    text = """%%MatrixMarket matrix coordinate real skew-symmetric
2 2 1
2 1 3.0
"""
    a = read_matrix_market(text)
    dense = a.to_dense()
    assert dense[1, 0] == 3.0 and dense[0, 1] == -3.0


def test_read_with_comments():
    text = """%%MatrixMarket matrix coordinate real general
% a comment
% another comment
2 2 1
1 2 7.0
"""
    a = read_matrix_market(text)
    assert a.to_dense()[0, 1] == 7.0


def test_complex_rejected():
    text = "%%MatrixMarket matrix coordinate complex general\n1 1 0\n"
    with pytest.raises(MatrixFormatError):
        read_matrix_market(text)


def test_bad_banner_rejected():
    with pytest.raises(MatrixFormatError):
        read_matrix_market("%%NotMM matrix coordinate real general\n1 1 0\n")


def test_array_format_rejected():
    with pytest.raises(MatrixFormatError):
        read_matrix_market("%%MatrixMarket matrix array real general\n1 1\n")


def test_entry_count_mismatch_rejected():
    text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n"
    with pytest.raises(MatrixFormatError):
        read_matrix_market(text)


@pytest.mark.parametrize("body", [
    "1000000000000 1000000000000 1\n1 1 1.0\n",  # 8 TB row pointer
    "2 2 2\n1 1 nan\n2 2 inf\n",
    "2 x 1\n1 1 1.0\n",
    "2 2 1\n1 1 abc\n",
    "2 2 1\n1.5 1 1.0\n",
], ids=["huge-dims", "non-finite", "bad-size-line", "non-numeric",
        "fractional-index"])
def test_malformed_input_raises_format_error(body):
    text = "%%MatrixMarket matrix coordinate real general\n" + body
    with pytest.raises(MatrixFormatError):
        read_matrix_market(text)


def test_integer_field():
    text = "%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 2 3\n"
    a = read_matrix_market(text)
    assert a.to_dense()[0, 1] == 3.0


def test_file_roundtrip(tmp_path, rng):
    a = random_csr(10, 40, rng)
    path = tmp_path / "m.mtx"
    write_matrix_market(a, path)
    b = read_matrix_market(path)
    assert np.allclose(a.to_dense(), b.to_dense())
