import numpy as np
import pytest

from repro.generators import random_er, stencil_2d
from repro.graph import graph_from_matrix
from repro.partition.matching import (
    heavy_edge_matching,
    matching_to_coarse_map,
)


@pytest.fixture
def grid_graph():
    return graph_from_matrix(stencil_2d(10, seed=0))


@pytest.fixture
def er_graph():
    return graph_from_matrix(random_er(200, 8.0, seed=1))


def assert_valid_matching(g, match):
    n = g.nvertices
    assert match.shape == (n,)
    for v in range(n):
        u = int(match[v])
        assert 0 <= u < n
        assert match[u] == v  # involution
        if u != v:
            assert u in g.neighbours(v)  # matched along an edge


def test_heavy_edge_matching_valid(grid_graph):
    match = heavy_edge_matching(grid_graph, rng=np.random.default_rng(0))
    assert_valid_matching(grid_graph, match)


def test_heavy_edge_matching_valid_er(er_graph):
    match = heavy_edge_matching(er_graph, rng=np.random.default_rng(0))
    assert_valid_matching(er_graph, match)


def test_matching_shrinks_graph(grid_graph):
    match = heavy_edge_matching(grid_graph, rng=np.random.default_rng(0))
    _, ncoarse = matching_to_coarse_map(match)
    # a grid has a near-perfect matching; expect close to n/2
    assert ncoarse <= 0.65 * grid_graph.nvertices


def test_heavy_edge_prefers_heavy_edges():
    from repro.graph.adjacency import Graph

    # square 0-1-3-2-0 with heavy edges 0-1 and 2-3: whichever vertex is
    # visited first, HEM must pick the heavy pairs
    xadj = np.array([0, 2, 4, 6, 8])
    adjncy = np.array([1, 2, 0, 3, 0, 3, 1, 2])
    ewgt = np.array([100, 1, 100, 1, 1, 100, 1, 100])
    g = Graph(xadj, adjncy, ewgt=ewgt)
    for seed in range(5):
        match = heavy_edge_matching(g, rng=np.random.default_rng(seed))
        assert match[0] == 1 and match[1] == 0
        assert match[2] == 3 and match[3] == 2


def test_coarse_map_pairs_share_id():
    match = np.array([1, 0, 2, 4, 3])
    cmap, ncoarse = matching_to_coarse_map(match)
    assert ncoarse == 3
    assert cmap[0] == cmap[1]
    assert cmap[3] == cmap[4]
    assert cmap[2] not in (cmap[0], cmap[3])
