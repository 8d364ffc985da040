"""Order-sensitive matrix features (paper §3.2).

Four features explain reordering performance in the study:

* :func:`bandwidth` — max distance of a nonzero to the diagonal;
* :func:`profile` — per-row distance from the leftmost entry to the
  diagonal, summed;
* :func:`offdiagonal_nonzeros` — nonzeros outside the k×k diagonal
  blocks (≈ edge-cut of a row-equal partition, key finding 5);
* :func:`imbalance_factor` — max/mean nonzeros per thread of a
  schedule.
"""

from .bandwidth import bandwidth
from .profile import profile
from .offdiag import offdiagonal_nonzeros
from .imbalance import imbalance_factor, imbalance_factor_1d

__all__ = [
    "bandwidth",
    "profile",
    "offdiagonal_nonzeros",
    "imbalance_factor",
    "imbalance_factor_1d",
]
