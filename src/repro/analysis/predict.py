"""Feature-based reordering recommendation (paper §6 future work).

The paper closes by proposing "machine learning to predict the most
effective reordering algorithm".  This module holds the untrained half
of that idea: :func:`recommend_ordering`, a hand-written rule model
over the §3.2 features plus cheap structural statistics, distilled from
the paper's findings (findings 1–5): hub-dominated matrices want
GP/2D, banded matrices are already fine, scattered local structure
wants RCM/GP, etc.  The learned selector, trained on sweep results, is
:mod:`repro.advisor`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import HarnessError
from ..features import bandwidth, imbalance_factor_1d, offdiagonal_nonzeros
from ..matrix.csr import CSRMatrix


@dataclass(frozen=True)
class PredictorFeatures:
    """Normalised, size-independent features of the rule model."""

    rel_bandwidth: float      # bandwidth / n
    rel_offdiag: float        # off-diagonal nnz fraction
    imbalance_1d: float       # max/mean nnz per thread
    density: float            # nnz / n (mean row degree)
    row_cv: float             # coefficient of variation of row lengths

    def vector(self) -> np.ndarray:
        return np.array([self.rel_bandwidth, self.rel_offdiag,
                         self.imbalance_1d, self.density / 64.0,
                         self.row_cv])


def extract_features(a: CSRMatrix, nthreads: int = 64) -> PredictorFeatures:
    """Compute the predictor features for a matrix."""
    if a.nrows == 0:
        raise HarnessError("cannot extract features of an empty matrix")
    lengths = a.row_lengths().astype(np.float64)
    mean_len = lengths.mean() if lengths.size else 0.0
    cv = float(lengths.std() / mean_len) if mean_len else 0.0
    return PredictorFeatures(
        rel_bandwidth=bandwidth(a) / max(a.nrows, 1),
        rel_offdiag=offdiagonal_nonzeros(a, nthreads) / max(a.nnz, 1),
        imbalance_1d=imbalance_factor_1d(a, nthreads),
        density=float(a.nnz / max(a.nrows, 1)),
        row_cv=cv,
    )


def recommend_ordering(a: CSRMatrix, nthreads: int = 64,
                       kernel: str = "1d") -> str:
    """Rule model distilled from the paper's findings.

    Returns the recommended ordering name (possibly ``"original"``).
    """
    f = extract_features(a, nthreads)
    # already narrow band and balanced: reordering rarely pays
    # (paper: "matrices already having an efficient ordering")
    if f.rel_bandwidth < 0.05 and f.imbalance_1d < 1.2:
        return "original"
    if kernel == "1d":
        # heavy imbalance: the partitioners' row balancing + locality
        # wins (finding 2); GP is the most reliable (finding 5)
        if f.imbalance_1d > 1.5 or f.rel_offdiag > 0.5:
            return "GP"
        # moderate disorder with local structure: RCM's band recovery
        # is nearly as good and an order of magnitude cheaper (Table 5)
        if f.rel_bandwidth > 0.25 and f.row_cv < 0.8:
            return "RCM"
        return "GP"
    # 2D kernel: balance is free, locality dominates; RCM and GP are
    # the front-runners (Table 4), RCM being much cheaper to compute
    if f.rel_offdiag > 0.6:
        return "GP"
    return "RCM"
