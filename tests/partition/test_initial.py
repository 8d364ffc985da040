"""Unit tests for initial-bisection strategies."""

import numpy as np
import pytest

from repro.generators import stencil_2d
from repro.graph import graph_from_matrix
from repro.partition.initial import (
    greedy_grow_bisection,
    initial_bisection,
    spectral_bisection,
)


@pytest.fixture(scope="module")
def grid():
    return graph_from_matrix(stencil_2d(8, seed=0))


def test_greedy_grow_hits_target(grid):
    target = grid.total_vertex_weight() // 2
    side = greedy_grow_bisection(grid, target, seed_vertex=0)
    w0 = int(grid.vwgt[side == 0].sum())
    assert abs(w0 - target) <= int(grid.vwgt.max())


def test_greedy_grow_region_is_connected(grid):
    # side 0 grows as a BFS ball: it must be connected
    import networkx as nx

    side = greedy_grow_bisection(grid, grid.total_vertex_weight() // 2, 0)
    gx = nx.Graph()
    gx.add_nodes_from(range(grid.nvertices))
    for v in range(grid.nvertices):
        for u in grid.neighbours(v):
            gx.add_edge(v, int(u))
    sub = gx.subgraph(np.flatnonzero(side == 0).tolist())
    assert nx.number_connected_components(sub) == 1


def test_greedy_grow_handles_disconnected():
    from repro.graph.adjacency import Graph

    # two components: 0-1 and 2-3
    xadj = np.array([0, 1, 2, 3, 4])
    adjncy = np.array([1, 0, 3, 2])
    g = Graph(xadj, adjncy)
    side = greedy_grow_bisection(g, 2, seed_vertex=0)
    assert (side == 0).sum() == 2


def test_spectral_bisection_splits_path():
    # path graph: the Fiedler split is the midpoint cut
    from repro.matrix import csr_from_dense

    n = 12
    dense = np.zeros((n, n))
    for i in range(n - 1):
        dense[i, i + 1] = dense[i + 1, i] = 1.0
    g = graph_from_matrix(csr_from_dense(dense))
    side = spectral_bisection(g, n // 2)
    # the two halves must be contiguous index ranges (path order)
    zeros = np.flatnonzero(side == 0)
    assert zeros.size == n // 2
    assert np.all(np.diff(zeros) == 1)


def test_spectral_tiny_graphs():
    from repro.graph.adjacency import Graph

    empty = Graph(np.array([0]), np.array([], dtype=np.int64))
    assert spectral_bisection(empty, 0).size == 0
    two = Graph(np.array([0, 1, 2]), np.array([1, 0]))
    side = spectral_bisection(two, 1)
    assert set(side.tolist()) == {0, 1}


def test_initial_bisection_portfolio_feasible(grid):
    target = grid.total_vertex_weight() // 2
    side = initial_bisection(grid, target, rng=np.random.default_rng(0))
    w0 = int(grid.vwgt[side == 0].sum())
    assert abs(w0 - target) <= 0.25 * grid.total_vertex_weight()


def test_initial_bisection_empty_graph():
    from repro.graph.adjacency import Graph

    empty = Graph(np.array([0]), np.array([], dtype=np.int64))
    assert initial_bisection(empty, 0).size == 0


def test_initial_bisection_prefers_lower_cut():
    # dumbbell: two cliques joined by one edge — the 1-edge cut must win
    from repro.matrix import csr_from_dense

    n = 12
    dense = np.zeros((n, n))
    dense[:6, :6] = 1.0
    dense[6:, 6:] = 1.0
    np.fill_diagonal(dense, 0)
    dense[5, 6] = dense[6, 5] = 1.0
    g = graph_from_matrix(csr_from_dense(dense))
    from repro.partition.metrics import edge_cut

    side = initial_bisection(g, 6, rng=np.random.default_rng(0))
    assert edge_cut(g, side) == 1
