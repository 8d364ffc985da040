"""Held-out evaluation: how close does the advisor get to the oracle?

For every (test matrix, architecture, kernel) cell the advisor picks a
top ordering from features alone; the sweep provides the modelled
speedup of that pick (``PerfModel``, not a stopwatch).  Four baselines
anchor the numbers:

* **oracle** — the modelled-best ordering per cell (upper bound),
* **always-RCM** — the paper's strongest single default,
* **rules** — hand-written thresholds distilled from the paper's
  findings (:func:`_rules_pick`), reading the same feature vector,
* **natural** — never reorder (speedup 1.0 by definition).

Use :func:`repro.generators.split_corpus` to keep the training and test
matrices disjoint (stratified by structural family).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..analysis.stats import geomean
from ..errors import AdvisorError
from ..spmv.registry import KERNELS
from .dataset import build_dataset
from .featurize import FEATURE_NAMES
from .service import Advisor

_REL_BANDWIDTH, _REL_OFFDIAG, _IMBALANCE_1D, _ROW_CV, _KERNEL_2D = (
    FEATURE_NAMES.index(name) for name in (
        "rel_bandwidth", "rel_offdiag", "imbalance_1d", "row_cv",
        "kernel_2d"))


def _rules_pick(features: np.ndarray) -> str:
    """Rule baseline distilled from the paper's findings 1–5.

    Reads an advisor feature vector and returns an ordering name
    (possibly ``"original"``).
    """
    rel_bandwidth = features[_REL_BANDWIDTH]
    rel_offdiag = features[_REL_OFFDIAG]
    imbalance_1d = features[_IMBALANCE_1D]
    # already narrow band and balanced: reordering rarely pays
    # (paper: "matrices already having an efficient ordering")
    if rel_bandwidth < 0.05 and imbalance_1d < 1.2:
        return "original"
    if not features[_KERNEL_2D]:
        # heavy imbalance: the partitioners' row balancing + locality
        # wins (finding 2); GP is the most reliable (finding 5)
        if imbalance_1d > 1.5 or rel_offdiag > 0.5:
            return "GP"
        # moderate disorder with local structure: RCM's band recovery
        # is nearly as good and an order of magnitude cheaper (Table 5)
        if rel_bandwidth > 0.25 and features[_ROW_CV] < 0.8:
            return "RCM"
        return "GP"
    # 2D kernel: balance is free, locality dominates; RCM and GP are
    # the front-runners (Table 4), RCM being much cheaper to compute
    if rel_offdiag > 0.6:
        return "GP"
    return "RCM"


@dataclass(frozen=True)
class EvaluationReport:
    """Aggregate advisor quality over a held-out corpus split."""

    cases: int
    top1_accuracy: float       # pick == modelled best (strict label match)
    within_5pct: float         # pick's speedup ≥ 95% of the oracle's
    geomean_advisor: float
    geomean_oracle: float
    geomean_rcm: float
    geomean_rules: float
    geomean_natural: float = 1.0
    picks: dict = field(default_factory=dict)   # ordering -> times picked

    @property
    def fraction_of_oracle(self) -> float:
        """Advisor geomean speedup relative to the oracle's."""
        return self.geomean_advisor / self.geomean_oracle

    def rows(self) -> list:
        """Table rows: policy, geomean speedup, fraction of oracle."""
        return [
            ["oracle-best", self.geomean_oracle, 1.0],
            ["advisor", self.geomean_advisor, self.fraction_of_oracle],
            ["always-RCM", self.geomean_rcm,
             self.geomean_rcm / self.geomean_oracle],
            ["rules", self.geomean_rules,
             self.geomean_rules / self.geomean_oracle],
            ["natural order", self.geomean_natural,
             self.geomean_natural / self.geomean_oracle],
        ]


def evaluate_advisor(advisor: Advisor, corpus: list, architectures: list,
                     orderings=None, kernels: tuple = KERNELS,
                     cache=None, sweep=None, seed=0,
                     iterations: float | None = None) -> EvaluationReport:
    """Score ``advisor`` against the modelled sweep of ``corpus``.

    ``sweep``/``cache`` are forwarded to
    :func:`repro.advisor.dataset.build_dataset`, which supplies the
    ground-truth speedups; the advisor itself sees only features.
    """
    rows = build_dataset(corpus, architectures, orderings=orderings,
                         kernels=kernels, cache=cache, sweep=sweep,
                         seed=seed)
    if not rows:
        raise AdvisorError("evaluation corpus produced no dataset rows")
    budget = advisor.iterations if iterations is None else iterations
    hits = 0
    close = 0
    picked = []
    oracle = []
    rcm = []
    rules = []
    picks: dict = {}
    for row in rows:
        ranked = advisor.model.predict_ranked(row.features, nnz=row.nnz,
                                              iterations=budget)
        pick = ranked[0].ordering
        picks[pick] = picks.get(pick, 0) + 1
        sp = row.speedups.get(pick, 1.0)
        picked.append(sp)
        oracle.append(row.best_speedup)
        rcm.append(row.speedups.get("RCM", 1.0))
        rules.append(row.speedups.get(_rules_pick(row.features), 1.0))
        hits += pick == row.best
        close += sp >= 0.95 * row.best_speedup
    return EvaluationReport(
        cases=len(rows),
        top1_accuracy=hits / len(rows),
        within_5pct=close / len(rows),
        geomean_advisor=geomean(picked),
        geomean_oracle=geomean(oracle),
        geomean_rcm=geomean(rcm),
        geomean_rules=geomean(rules),
        picks=picks,
    )
