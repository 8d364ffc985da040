"""Erdős–Rényi random matrices — the no-structure baseline.

Uniform random patterns have no ordering-recoverable locality at all:
every reordering should be roughly neutral-to-harmful on them (they
populate the slowdown tails of the paper's Figure 2 boxplots).
"""

from __future__ import annotations

from ..matrix.csr import CSRMatrix
from ..util.rng import as_rng
from ._common import check_size, symmetric_from_edges, unsymmetric_from_entries


def random_er(n: int, avg_degree: float = 8.0, symmetric: bool = True,
              seed=0) -> CSRMatrix:
    """Erdős–Rényi G(n, m) with m ≈ avg_degree·n/2 undirected edges."""
    n = check_size("n", n, 2)
    if avg_degree <= 0:
        raise ValueError(f"avg_degree must be positive, got {avg_degree}")
    rng = as_rng(seed)
    m = int(avg_degree * n / 2)
    u = rng.integers(0, n, m)
    v = rng.integers(0, n, m)
    if symmetric:
        return symmetric_from_edges(n, u, v, rng)
    mask = u != v
    return unsymmetric_from_entries(n, n, u[mask], v[mask], rng)
