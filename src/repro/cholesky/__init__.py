"""Symbolic sparse Cholesky analysis (paper §4.6).

Fill-in is quantified without numeric factorisation:

* :mod:`.etree` — Liu's elimination-tree algorithm;
* :mod:`.postorder` — depth-first postorder of the etree;
* :mod:`.rowcounts` — row counts of the Cholesky factor L via the
  skeleton/path-walking method of Gilbert, Ng & Peyton, giving
  ``nnz(L)`` in O(|L|) time;
* :mod:`.fill` — the paper's metric ``nnz(L) / nnz(A)`` per ordering.
"""

from .etree import elimination_tree
from .postorder import etree_postorder
from .rowcounts import cholesky_row_counts, cholesky_nnz
from .fill import fill_ratio

__all__ = [
    "elimination_tree",
    "etree_postorder",
    "cholesky_row_counts",
    "cholesky_nnz",
    "fill_ratio",
]
