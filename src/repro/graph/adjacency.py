"""Undirected graph in CSR adjacency form.

The graph is stored exactly like a pattern-symmetric CSR matrix with the
diagonal removed: ``xadj``/``adjncy`` in METIS terminology.  Vertex and
edge weights are carried as separate arrays so the multilevel partitioner
can coarsen them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import MatrixFormatError
from ..matrix.csr import CSRMatrix
from ..matrix.symmetry import is_pattern_symmetric, symmetrize_pattern
from ..util.validate import require


@dataclass(frozen=True)
class Graph:
    """Undirected graph with CSR adjacency.

    Attributes
    ----------
    xadj:
        ``int64`` array of length ``nvertices + 1``: neighbour list of
        vertex ``v`` is ``adjncy[xadj[v]:xadj[v+1]]``.
    adjncy:
        Flattened neighbour lists; every undirected edge appears twice.
    vwgt:
        Vertex weights (``int64``).  The study uses unweighted graphs
        (balancing rows, §3.3), so these default to 1, but the coarsening
        machinery needs real weights.
    ewgt:
        Edge weights aligned with ``adjncy``; defaults to 1 and
        accumulates multiplicities during coarsening.
    """

    xadj: np.ndarray
    adjncy: np.ndarray
    vwgt: np.ndarray = field(default=None)
    ewgt: np.ndarray = field(default=None)

    def __post_init__(self) -> None:
        xadj = np.asarray(self.xadj, dtype=np.int64)
        adjncy = np.asarray(self.adjncy, dtype=np.int64)
        require(xadj.ndim == 1 and xadj.size >= 1, MatrixFormatError,
                "xadj must be a 1-D array of length nvertices+1")
        require(xadj[0] == 0 and bool(np.all(np.diff(xadj) >= 0)),
                MatrixFormatError, "xadj must be monotone starting at 0")
        require(adjncy.shape == (int(xadj[-1]),), MatrixFormatError,
                "adjncy length must equal xadj[-1]")
        n = xadj.size - 1
        if adjncy.size:
            require(int(adjncy.min()) >= 0 and int(adjncy.max()) < n,
                    MatrixFormatError, "adjncy entries out of range")
        vwgt = (np.ones(n, dtype=np.int64) if self.vwgt is None
                else np.asarray(self.vwgt, dtype=np.int64))
        ewgt = (np.ones(adjncy.size, dtype=np.int64) if self.ewgt is None
                else np.asarray(self.ewgt, dtype=np.int64))
        require(vwgt.shape == (n,), MatrixFormatError,
                "vwgt must have one weight per vertex")
        require(ewgt.shape == adjncy.shape, MatrixFormatError,
                "ewgt must align with adjncy")
        object.__setattr__(self, "xadj", xadj)
        object.__setattr__(self, "adjncy", adjncy)
        object.__setattr__(self, "vwgt", vwgt)
        object.__setattr__(self, "ewgt", ewgt)

    @property
    def nvertices(self) -> int:
        return self.xadj.size - 1

    @property
    def nedges(self) -> int:
        """Number of undirected edges (each stored twice in adjncy)."""
        return self.adjncy.size // 2

    def degrees(self) -> np.ndarray:
        """Vertex degrees, memoised on first call (read-only array).

        Every BFS of the RCM/GPS/peripheral machinery re-derived this
        from ``xadj``; the adjacency is immutable, so one shared copy
        serves them all.
        """
        cached = getattr(self, "_cache_degrees", None)
        if cached is None:
            cached = np.diff(self.xadj)
            cached.flags.writeable = False
            object.__setattr__(self, "_cache_degrees", cached)
        return cached

    def __getstate__(self) -> dict:
        """Drop memoised derivatives from the pickled state."""
        return {k: v for k, v in self.__dict__.items()
                if not k.startswith("_cache_")}

    def neighbours(self, v: int) -> np.ndarray:
        return self.adjncy[self.xadj[v]:self.xadj[v + 1]]

    def total_vertex_weight(self) -> int:
        return int(self.vwgt.sum())

    def total_edge_weight(self) -> int:
        """Sum of undirected edge weights (each edge counted once)."""
        return int(self.ewgt.sum()) // 2

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(n={self.nvertices}, m={self.nedges})"


def graph_from_matrix(a: CSRMatrix, symmetrize: bool = True,
                      weighted_vertices: bool = False) -> Graph:
    """Build the undirected graph of a square sparse matrix.

    Off-diagonal nonzeros become edges; the diagonal is dropped.  If the
    pattern is unsymmetric and ``symmetrize`` is set, ``A + Aᵀ`` is used
    (paper §3.3); otherwise an unsymmetric pattern raises.

    ``weighted_vertices=True`` weights each vertex by the nonzero count
    of its row in the *original* matrix, the alternative balance
    criterion discussed (and not used) in §3.3.
    """
    if not a.is_square:
        raise MatrixFormatError("graph construction requires a square matrix")
    pattern = a
    if not is_pattern_symmetric(a):
        if not symmetrize:
            raise MatrixFormatError(
                "matrix pattern is unsymmetric; pass symmetrize=True")
        pattern = symmetrize_pattern(a)
    rows = pattern.row_of_entry()
    off = rows != pattern.colidx
    rows = rows[off]
    cols = pattern.colidx[off]
    xadj = np.zeros(pattern.nrows + 1, dtype=np.int64)
    np.add.at(xadj, rows + 1, 1)
    np.cumsum(xadj, out=xadj)
    vwgt = None
    if weighted_vertices:
        vwgt = np.maximum(a.row_lengths(), 1)
    return Graph(xadj, cols.copy(), vwgt=vwgt)
