"""The result type shared by every reordering algorithm."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import PermutationError
from ..matrix.csr import CSRMatrix
from ..matrix.permute import apply_bijection


@dataclass(frozen=True)
class OrderingResult:
    """A computed reordering.

    Attributes
    ----------
    algorithm:
        Short name ("RCM", "GP", ...).
    perm:
        New-to-old permutation: row ``perm[k]`` of the original matrix
        becomes row ``k``.
    symmetric:
        True if the permutation applies to rows *and* columns (PAPᵀ);
        False for row-only orderings (PA) like Gray.  Checked to be a
        bijection at construction and frozen (a read-only private
        copy), so :meth:`apply` need not check it again.
    seconds:
        Wall-clock time spent computing the ordering (Table 5).
    """

    algorithm: str
    perm: np.ndarray
    symmetric: bool
    seconds: float = 0.0

    def __post_init__(self) -> None:
        perm = np.asarray(self.perm, dtype=np.int64)
        n = perm.size
        seen = np.zeros(n, dtype=bool)
        if n and (perm.min() < 0 or perm.max() >= n):
            raise PermutationError(
                f"{self.algorithm}: permutation entries out of range")
        seen[perm] = True
        if not bool(seen.all()):
            raise PermutationError(
                f"{self.algorithm}: permutation is not a bijection")
        perm = perm.copy()
        perm.flags.writeable = False
        object.__setattr__(self, "perm", perm)

    @property
    def n(self) -> int:
        return int(self.perm.size)

    def apply(self, a: CSRMatrix) -> CSRMatrix:
        """Apply this ordering to ``a`` (PAPᵀ or PA as appropriate)."""
        return apply_bijection(a, self.perm, self.symmetric)


def identity_ordering(n: int) -> OrderingResult:
    """The original (unreordered) baseline."""
    return OrderingResult("original", np.arange(n, dtype=np.int64), True, 0.0)
