import numpy as np
import pytest

from repro.errors import PartitionError
from repro.generators import circuit_matrix, fem_mesh_2d, stencil_2d
from repro.graph import column_net_hypergraph
from repro.hpartition import (
    cutnet,
    hbisect,
    hyper_balance,
    partition_hypergraph,
)
from repro.hpartition.coarsen import hcontract, heavy_connectivity_matching
from repro.hpartition.recursive import induced_subhypergraph
from repro.matrix import csr_from_dense


@pytest.fixture
def mesh_hg():
    return column_net_hypergraph(fem_mesh_2d(400, seed=0, scrambled=True))


def test_cutnet_known_value():
    # 2 rows; column 2 has pins in both rows
    dense = np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 4.0]])
    h = column_net_hypergraph(csr_from_dense(dense))
    part = np.array([0, 1])
    assert cutnet(h, part) == 1  # only column 2 is cut


def test_cutnet_zero_when_together():
    dense = np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 4.0]])
    h = column_net_hypergraph(csr_from_dense(dense))
    assert cutnet(h, np.array([0, 0])) == 0


def test_cutnet_bad_assignment(mesh_hg):
    with pytest.raises(PartitionError):
        cutnet(mesh_hg, np.zeros(3, dtype=np.int64))


def test_matching_validity(mesh_hg):
    match = heavy_connectivity_matching(mesh_hg,
                                        rng=np.random.default_rng(0))
    for v in range(mesh_hg.nvertices):
        u = int(match[v])
        assert match[u] == v


def test_contract_preserves_weight(mesh_hg):
    from repro.partition.matching import matching_to_coarse_map

    match = heavy_connectivity_matching(mesh_hg,
                                        rng=np.random.default_rng(0))
    cmap, nc = matching_to_coarse_map(match)
    coarse = hcontract(mesh_hg, cmap, nc)
    assert int(coarse.vwgt.sum()) == int(mesh_hg.vwgt.sum())
    assert coarse.nvertices == nc
    # no single-pin nets survive
    assert int(coarse.net_sizes().min(initial=2)) >= 2


def test_hbisect_balance(mesh_hg):
    side = hbisect(mesh_hg, rng=np.random.default_rng(0))
    w0 = int(mesh_hg.vwgt[side == 0].sum())
    total = int(mesh_hg.vwgt.sum())
    assert abs(w0 - total / 2) < 0.15 * total


def test_hbisect_beats_random(mesh_hg):
    side = hbisect(mesh_hg, rng=np.random.default_rng(0))
    rnd = np.random.default_rng(1).integers(0, 2, mesh_hg.nvertices)
    assert cutnet(mesh_hg, side) < 0.6 * cutnet(mesh_hg, rnd)


@pytest.mark.parametrize("k", [2, 3, 8])
def test_partition_hypergraph_k(mesh_hg, k):
    part = partition_hypergraph(mesh_hg, k, rng=np.random.default_rng(0))
    used = np.unique(part)
    assert used.min() >= 0 and used.max() < k
    assert hyper_balance(mesh_hg, part, k) < 1.7


def test_partition_hypergraph_invalid_k(mesh_hg):
    with pytest.raises(PartitionError):
        partition_hypergraph(mesh_hg, 0)


def test_refinement_not_worse():
    h = column_net_hypergraph(stencil_2d(16, seed=1, scrambled=True))
    ref = partition_hypergraph(h, 4, rng=np.random.default_rng(0),
                               refine=True)
    noref = partition_hypergraph(h, 4, rng=np.random.default_rng(0),
                                 refine=False)
    assert cutnet(h, ref) <= cutnet(h, noref)


def test_induced_subhypergraph_drops_outside_pins():
    dense = np.array([
        [1.0, 1.0, 0.0],
        [0.0, 1.0, 1.0],
        [1.0, 0.0, 1.0],
    ])
    h = column_net_hypergraph(csr_from_dense(dense))
    sub = induced_subhypergraph(h, np.array([0, 1]))
    assert sub.nvertices == 2
    # only column 1 has >= 2 pins within {0, 1}
    assert sub.nnets == 1
    assert set(sub.pins(0).tolist()) == {0, 1}


def test_circuit_partition_isolates_rails():
    a = circuit_matrix(600, rail_rows=2, seed=0)
    h = column_net_hypergraph(a)
    part = partition_hypergraph(h, 4, rng=np.random.default_rng(0))
    assert cutnet(h, part) < h.nnets  # something is uncut
