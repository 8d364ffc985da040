"""The sort-free permutations are bit-identical to a COO rebuild.

The oracle below relabels the row and column of every entry and
rebuilds CSR through ``csr_from_coo`` — a full ``lexsort`` plus a
duplicate reduction.  ``permute_symmetric`` and ``permute_csr`` gather
rows and sort within them instead; they must reproduce the oracle's
``rowptr``, ``colidx`` and value bytes exactly (``allclose`` elsewhere
in the suite would not notice a reordered or rewritten value).
"""

import numpy as np
import pytest

from repro.generators import build_corpus
from repro.matrix import (
    coo_from_arrays,
    csr_from_coo,
    permute_csr,
    permute_symmetric,
)
from repro.matrix.csr import CSRMatrix
from repro.matrix.permute import invert_permutation


def _oracle(a, row_perm, col_perm):
    inv_r = invert_permutation(row_perm)
    inv_c = invert_permutation(col_perm)
    return csr_from_coo(coo_from_arrays(
        a.nrows, a.ncols, inv_r[a.row_of_entry()], inv_c[a.colidx],
        a.values))


def _assert_bitexact(got, want):
    assert got.shape == want.shape
    assert got.rowptr.tobytes() == want.rowptr.tobytes()
    assert got.colidx.tobytes() == want.colidx.tobytes()
    assert got.values.tobytes() == want.values.tobytes()


def _top_rows(a, k):
    """The first ``k`` rows of ``a``: a rectangular ``k x ncols`` matrix."""
    end = a.rowptr[k]
    return CSRMatrix(k, a.ncols, a.rowptr[:k + 1], a.colidx[:end],
                     a.values[:end])


@pytest.fixture(scope="module", params=(1, 2))
def corpus(request):
    return [e.matrix for e in build_corpus("tiny", seed=request.param)]


def test_permute_symmetric_matches_coo_rebuild(corpus):
    rng = np.random.default_rng(0)
    for a in corpus:
        for _ in range(3):
            p = rng.permutation(a.nrows)
            _assert_bitexact(permute_symmetric(a, p), _oracle(a, p, p))


def test_permute_csr_matches_coo_rebuild(corpus):
    rng = np.random.default_rng(1)
    for a in corpus:
        b = _top_rows(a, a.nrows // 2)
        rp, cp = rng.permutation(b.nrows), rng.permutation(b.ncols)
        _assert_bitexact(permute_csr(b, rp, cp), _oracle(b, rp, cp))


def _empty(nrows, ncols):
    return CSRMatrix(nrows, ncols, np.zeros(nrows + 1, dtype=np.int64),
                     np.empty(0, dtype=np.int64), np.empty(0))


def _mostly_empty_rows():
    # rows 0, 2, 3 and 6 hold nothing
    rows = np.array([1, 1, 4, 5, 5, 5])
    cols = np.array([0, 6, 3, 1, 2, 6])
    return csr_from_coo(coo_from_arrays(7, 7, rows, cols,
                                        np.arange(1.0, 7.0)))


@pytest.mark.parametrize("a", [_empty(0, 0), _empty(6, 6),
                               _mostly_empty_rows()],
                         ids=["0x0", "6x6-no-entries", "mostly-empty-rows"])
def test_empty_rows_match_coo_rebuild(a):
    rng = np.random.default_rng(2)
    for _ in range(3):
        p = rng.permutation(a.nrows)
        _assert_bitexact(permute_symmetric(a, p), _oracle(a, p, p))
    b = _empty(3, 5)
    rp, cp = rng.permutation(3), rng.permutation(5)
    _assert_bitexact(permute_csr(b, rp, cp), _oracle(b, rp, cp))


def test_signed_zero_and_nan_payloads_survive():
    bits = np.array([0x8000000000000000,    # -0.0
                     0x7FF8000000000123,    # quiet NaN with a payload
                     0xFFF8000000000000,    # negative NaN
                     0x0000000000000001,    # smallest subnormal
                     0x3FF0000000000000],   # 1.0
                    dtype=np.uint64)
    values = bits.view(np.float64)
    a = csr_from_coo(coo_from_arrays(4, 4, [0, 0, 1, 2, 3],
                                     [1, 3, 0, 2, 1], values))
    rng = np.random.default_rng(3)
    for _ in range(4):
        p = rng.permutation(4)
        got = permute_symmetric(a, p)
        _assert_bitexact(got, _oracle(a, p, p))
        assert sorted(got.values.view(np.uint64)) == sorted(bits)


@pytest.mark.parametrize("tier", ["tiny", "small"])
def test_stable_column_sort_matches_default_sort(tier):
    """The keys ``row * ncols + col`` that re-sort the columns of
    ``PAPᵀ`` are unique, so the stable sort it uses picks the same
    order as the default one."""
    from repro.matrix.permute import _gather_rows

    rng = np.random.default_rng(3)
    for e in build_corpus(tier, seed=0):
        a = e.matrix
        p = rng.permutation(a.nrows)
        rowptr, src = _gather_rows(a, p)
        cols = invert_permutation(p)[a.colidx[src]]
        rows = np.repeat(np.arange(a.nrows, dtype=np.int64),
                         np.diff(rowptr))
        keys = rows * a.ncols + cols
        assert np.array_equal(np.argsort(keys, kind="stable"),
                              np.argsort(keys)), e.name
        _assert_bitexact(permute_symmetric(a, p), _oracle(a, p, p))
