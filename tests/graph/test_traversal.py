import numpy as np
import pytest

from repro.graph import (
    bfs_levels,
    graph_from_matrix,
    pseudo_peripheral_vertex,
)
from repro.matrix import csr_from_dense

from .test_adjacency import path_graph


def grid_graph(rows, cols):
    n = rows * cols
    dense = np.zeros((n, n))
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                dense[v, v + 1] = dense[v + 1, v] = 1.0
            if r + 1 < rows:
                dense[v, v + cols] = dense[v + cols, v] = 1.0
    return graph_from_matrix(csr_from_dense(dense))


def test_bfs_levels_on_path():
    g = path_graph(5)
    assert np.array_equal(bfs_levels(g, 0), [0, 1, 2, 3, 4])
    assert np.array_equal(bfs_levels(g, 2), [2, 1, 0, 1, 2])


def test_bfs_levels_unreachable():
    dense = np.zeros((4, 4))
    dense[0, 1] = dense[1, 0] = 1.0
    g = graph_from_matrix(csr_from_dense(dense))
    lv = bfs_levels(g, 0)
    assert lv[0] == 0 and lv[1] == 1
    assert lv[2] == -1 and lv[3] == -1


def test_bfs_levels_match_networkx(rng):
    import networkx as nx

    g = grid_graph(5, 7)
    nxg = nx.grid_2d_graph(5, 7)
    mapping = {(r, c): r * 7 + c for r, c in nxg.nodes}
    nxg = nx.relabel_nodes(nxg, mapping)
    dist = nx.single_source_shortest_path_length(nxg, 0)
    lv = bfs_levels(g, 0)
    for v, d in dist.items():
        assert lv[v] == d


def test_bfs_start_out_of_range():
    g = path_graph(3)
    with pytest.raises(IndexError):
        bfs_levels(g, 3)


def test_pseudo_peripheral_on_path():
    g = path_graph(9)
    v = pseudo_peripheral_vertex(g, 4)
    assert v in (0, 8)


def test_pseudo_peripheral_eccentricity_not_smaller():
    g = grid_graph(6, 3)
    start = 7  # interior-ish
    v = pseudo_peripheral_vertex(g, start)
    assert bfs_levels(g, v).max() >= bfs_levels(g, start).max()


def test_isolated_vertex_peripheral():
    dense = np.zeros((3, 3))
    g = graph_from_matrix(csr_from_dense(dense))
    assert pseudo_peripheral_vertex(g, 1) == 1
