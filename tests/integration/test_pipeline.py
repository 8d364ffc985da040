"""End-to-end integration tests: the full study pipeline on one matrix.

These exercise every layer together — generator → graph → partitioner →
ordering → permutation → schedule → kernel → model → analysis — the way
the benchmark harness composes them, but at unit-test scale with strong
cross-layer assertions.
"""

import numpy as np
import pytest

from repro.analysis import geomean
from repro.features import bandwidth, offdiagonal_nonzeros, profile
from repro.generators import fem_mesh_2d
from repro.machine import PerfModel, get_architecture, simulate_measurement
from repro.reorder import ALL_ORDERINGS, compute_ordering
from repro.spmv import schedule_1d, schedule_2d, spmv_1d, spmv_2d


@pytest.fixture(scope="module")
def matrix():
    return fem_mesh_2d(700, seed=11, scrambled=True)


@pytest.fixture(scope="module")
def arch():
    return get_architecture("Ice Lake")


@pytest.fixture(scope="module")
def orderings(matrix, arch):
    return {name: compute_ordering(matrix, name, nparts=arch.gp_parts)
            for name in ALL_ORDERINGS}


def test_numerics_survive_every_ordering(matrix, orderings):
    """SpMV on the reordered matrix must equal the permuted original
    result, for every ordering and both kernels."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal(matrix.ncols)
    y_ref = matrix.matvec(x)
    for name, r in orderings.items():
        b = r.apply(matrix)
        if r.symmetric:
            xb = x[r.perm]
            expected = y_ref[r.perm]
        else:
            xb = x
            expected = y_ref[r.perm]
        y1 = spmv_1d(b, xb, schedule_1d(b, 8))
        y2 = spmv_2d(b, xb, schedule_2d(b, 8))
        assert np.allclose(y1, expected), name
        assert np.allclose(y2, expected), name


def test_gp_wins_via_offdiag_mechanism(matrix, arch, orderings):
    """The causal chain of finding 5: GP lowers off-diagonal nonzeros,
    and the model converts that into the best 1D speedup."""
    base_off = offdiagonal_nonzeros(matrix, arch.threads)
    base = simulate_measurement(matrix, arch, "1d", "m", "original")
    results = {}
    offs = {}
    for name, r in orderings.items():
        if name == "original":
            continue
        b = r.apply(matrix)
        offs[name] = offdiagonal_nonzeros(b, arch.threads)
        rec = simulate_measurement(b, arch, "1d", "m", name)
        results[name] = rec.gflops_max / base.gflops_max
    assert offs["GP"] < base_off
    assert offs["GP"] == min(offs.values())
    assert results["GP"] >= max(v for k, v in results.items()
                                if k != "GP") * 0.9


def test_feature_record_consistency(matrix, orderings):
    b = orderings["RCM"].apply(matrix)
    assert b.nnz == matrix.nnz
    assert bandwidth(b) < bandwidth(matrix)
    assert profile(b) < profile(matrix)


def test_speedup_pipeline_deterministic(matrix, arch):
    """The full pipeline must be reproducible end to end."""
    def run():
        r = compute_ordering(matrix, "GP", nparts=arch.gp_parts, seed=5)
        b = r.apply(matrix)
        model = PerfModel(arch)
        return model.predict(b, schedule_1d(b, arch.threads)).seconds

    assert run() == run()


def test_geomean_of_identity_is_one(matrix, arch):
    base = simulate_measurement(matrix, arch, "1d", "m", "original")
    again = simulate_measurement(matrix, arch, "1d", "m", "original")
    assert geomean([again.gflops_max / base.gflops_max]) == 1.0
