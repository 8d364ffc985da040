import numpy as np
import pytest

from repro.errors import PartitionError
from repro.generators import fem_mesh_2d, rmat_graph, stencil_2d
from repro.graph import graph_from_matrix
from repro.partition import (
    bisect,
    edge_cut,
    partition_balance,
    partition_graph,
    partition_weights,
    vertex_separator,
)


@pytest.fixture
def mesh_graph():
    return graph_from_matrix(fem_mesh_2d(600, seed=0, scrambled=True))


def test_bisect_covers_all_vertices(mesh_graph):
    side = bisect(mesh_graph, rng=np.random.default_rng(0))
    assert side.shape == (mesh_graph.nvertices,)
    assert set(np.unique(side).tolist()) <= {0, 1}
    assert (side == 0).any() and (side == 1).any()


def test_bisect_balance(mesh_graph):
    side = bisect(mesh_graph, rng=np.random.default_rng(0))
    w0 = int(mesh_graph.vwgt[side == 0].sum())
    total = mesh_graph.total_vertex_weight()
    assert abs(w0 - total / 2) < 0.15 * total


def test_bisect_cut_much_better_than_random(mesh_graph):
    rng = np.random.default_rng(0)
    side = bisect(mesh_graph, rng=rng)
    random_side = np.random.default_rng(1).integers(
        0, 2, mesh_graph.nvertices)
    assert edge_cut(mesh_graph, side) < 0.5 * edge_cut(mesh_graph,
                                                       random_side)


def test_bisect_respects_target():
    g = graph_from_matrix(stencil_2d(20, seed=0))
    target = g.total_vertex_weight() // 4
    side = bisect(g, target0=target, rng=np.random.default_rng(0))
    w0 = int(g.vwgt[side == 0].sum())
    assert abs(w0 - target) <= 0.1 * g.total_vertex_weight()


def test_bisect_bad_target_rejected(mesh_graph):
    with pytest.raises(PartitionError):
        bisect(mesh_graph, target0=-5)


def test_bisect_trivial_graphs():
    from repro.graph.adjacency import Graph

    empty = Graph(np.array([0]), np.array([], dtype=np.int64))
    assert bisect(empty).size == 0
    single = Graph(np.array([0, 0]), np.array([], dtype=np.int64))
    assert np.array_equal(bisect(single), [0])


@pytest.mark.parametrize("k", [2, 3, 7, 16])
def test_partition_graph_k_parts(mesh_graph, k):
    part = partition_graph(mesh_graph, k, rng=np.random.default_rng(0))
    used = np.unique(part)
    assert used.min() >= 0 and used.max() < k
    assert used.size == k  # every part nonempty on this graph
    assert partition_balance(mesh_graph, part, k) < 1.6


def test_partition_graph_one_part(mesh_graph):
    part = partition_graph(mesh_graph, 1)
    assert np.all(part == 0)


def test_partition_graph_invalid_k(mesh_graph):
    with pytest.raises(PartitionError):
        partition_graph(mesh_graph, 0)


def test_partition_weights_sum(mesh_graph):
    part = partition_graph(mesh_graph, 8, rng=np.random.default_rng(0))
    w = partition_weights(mesh_graph, part, 8)
    assert w.sum() == mesh_graph.total_vertex_weight()


def test_refinement_improves_cut():
    g = graph_from_matrix(fem_mesh_2d(800, seed=2, scrambled=True))
    cut_ref = edge_cut(g, partition_graph(
        g, 8, rng=np.random.default_rng(0), refine=True))
    cut_noref = edge_cut(g, partition_graph(
        g, 8, rng=np.random.default_rng(0), refine=False))
    assert cut_ref <= cut_noref


def test_partition_handles_disconnected():
    from repro.matrix import csr_from_dense

    # two disjoint paths
    dense = np.zeros((10, 10))
    for i in range(4):
        dense[i, i + 1] = dense[i + 1, i] = 1
    for i in range(5, 9):
        dense[i, i + 1] = dense[i + 1, i] = 1
    g = graph_from_matrix(csr_from_dense(dense))
    part = partition_graph(g, 2, rng=np.random.default_rng(0))
    assert edge_cut(g, part) <= 1


def test_edge_cut_known_value():
    from repro.graph.adjacency import Graph

    # path 0-1-2-3 split as [0,1 | 2,3] cuts exactly one edge
    xadj = np.array([0, 1, 3, 5, 6])
    adjncy = np.array([1, 0, 2, 1, 3, 2])
    g = Graph(xadj, adjncy)
    assert edge_cut(g, np.array([0, 0, 1, 1])) == 1
    assert edge_cut(g, np.array([0, 1, 0, 1])) == 3


def test_edge_cut_bad_assignment():
    g = graph_from_matrix(stencil_2d(4, seed=0))
    with pytest.raises(PartitionError):
        edge_cut(g, np.zeros(3, dtype=np.int64))


def test_separator_disconnects(mesh_graph):
    a, b, sep = vertex_separator(mesh_graph, rng=np.random.default_rng(0))
    assert a.size + b.size + sep.size == mesh_graph.nvertices
    in_a = np.zeros(mesh_graph.nvertices, dtype=bool)
    in_a[a] = True
    in_b = np.zeros(mesh_graph.nvertices, dtype=bool)
    in_b[b] = True
    # no edge directly connects A and B
    src = np.repeat(np.arange(mesh_graph.nvertices), mesh_graph.degrees())
    crossing = (in_a[src] & in_b[mesh_graph.adjncy])
    assert not crossing.any()


def test_separator_small_on_mesh(mesh_graph):
    a, b, sep = vertex_separator(mesh_graph, rng=np.random.default_rng(0))
    # planar-ish mesh: separator ~ sqrt(n), allow generous headroom
    assert sep.size < 6 * int(np.sqrt(mesh_graph.nvertices))


def test_separator_on_rmat():
    g = graph_from_matrix(rmat_graph(9, seed=0))
    a, b, sep = vertex_separator(g, rng=np.random.default_rng(0))
    assert a.size + b.size + sep.size == g.nvertices


def test_separator_trivial():
    from repro.graph.adjacency import Graph

    single = Graph(np.array([0, 0]), np.array([], dtype=np.int64))
    a, b, sep = vertex_separator(single)
    assert a.size == 1 and b.size == 0 and sep.size == 0
