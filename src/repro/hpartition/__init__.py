"""Multilevel hypergraph partitioner — our from-scratch PaToH substitute.

Implements multilevel hypergraph bisection with the **cut-net** metric
used by the paper's HP ordering (§3.3): heavy-connectivity matching for
coarsening, greedy growing for initial partitions, and cut-net FM for
refinement.  k-way partitions come from recursive bisection.
"""

from .metrics import cutnet, hyper_balance
from .multilevel import hbisect
from .recursive import partition_hypergraph

__all__ = [
    "cutnet",
    "hyper_balance",
    "hbisect",
    "partition_hypergraph",
]
