import numpy as np
import pytest

from repro.errors import PermutationError
from repro.reorder import OrderingResult, identity_ordering

from ..conftest import random_csr


def test_identity_ordering_is_noop(rng):
    a = random_csr(20, 80, rng)
    result = identity_ordering(20)
    assert result.algorithm == "original"
    assert np.allclose(result.apply(a).to_dense(), a.to_dense())


def test_symmetric_apply(rng):
    a = random_csr(15, 60, rng)
    p = rng.permutation(15)
    r = OrderingResult("test", p, symmetric=True)
    assert np.allclose(r.apply(a).to_dense(), a.to_dense()[np.ix_(p, p)])


def test_row_only_apply(rng):
    a = random_csr(15, 60, rng)
    p = rng.permutation(15)
    r = OrderingResult("test", p, symmetric=False)
    assert np.allclose(r.apply(a).to_dense(), a.to_dense()[p, :])


def test_invalid_perm_rejected():
    with pytest.raises(PermutationError):
        OrderingResult("bad", np.array([0, 0, 1]), symmetric=True)
    with pytest.raises(PermutationError):
        OrderingResult("bad", np.array([0, 3]), symmetric=True)


def test_n_property():
    assert identity_ordering(7).n == 7
