"""Graph substrate used by the reordering algorithms.

A structurally symmetric sparse matrix corresponds to an undirected
graph whose vertices are rows/columns and whose edges are off-diagonal
nonzeros (paper §2.1).  This subpackage provides that adjacency view
plus the traversals the orderings are built from: BFS levels, the
George–Liu pseudo-peripheral vertex finder, and the column-net
hypergraph model used by hypergraph partitioning.
"""

from .adjacency import Graph, graph_from_matrix
from .bfs import bfs_levels
from .peripheral import pseudo_peripheral_vertex
from .hypergraph import Hypergraph, column_net_hypergraph

__all__ = [
    "Graph",
    "graph_from_matrix",
    "bfs_levels",
    "pseudo_peripheral_vertex",
    "Hypergraph",
    "column_net_hypergraph",
]
