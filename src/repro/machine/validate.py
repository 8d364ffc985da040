"""Validating the analytical model against the exact cache simulator.

The windowed working-set model (:meth:`PerfModel._x_line_loads`) is an
approximation; this module quantifies how well it tracks ground truth
on real inputs by comparing, per matrix, the model's x-line load count
against the exact miss count of an LRU cache of the same capacity.

The headline statistic is the *rank correlation across matrices and
orderings*: the model is used for A-vs-B comparisons, so ordering
agreement — not absolute miss counts — is what must hold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ArchitectureError
from ..matrix.csr import CSRMatrix
from .cache import LRUCache, simulate_x_misses
from .model import PerfModel

#: ways of the simulated LRU cache (capped at the cache's line count)
SIM_ASSOCIATIVITY = 8


@dataclass(frozen=True)
class ValidationReport:
    """Model-vs-simulator comparison over a set of matrices."""

    model_loads: np.ndarray
    exact_misses: np.ndarray
    labels: tuple

    @property
    def rank_correlation(self) -> float:
        """Spearman rank correlation between model and simulator."""
        if self.model_loads.size < 2:
            return 1.0
        rm = np.argsort(np.argsort(self.model_loads))
        re = np.argsort(np.argsort(self.exact_misses))
        c = np.corrcoef(rm, re)
        return float(c[0, 1])

    @property
    def mean_abs_log_error(self) -> float:
        """Mean |log(model/exact)| — the absolute-level agreement."""
        m = np.maximum(self.model_loads, 1)
        e = np.maximum(self.exact_misses, 1)
        return float(np.mean(np.abs(np.log(m / e))))


def validate_x_traffic_model(matrices, cache_lines: int = 64,
                             labels=None) -> ValidationReport:
    """Compare model load counts vs exact LRU misses for ``matrices``.

    ``cache_lines`` is the capacity used for *both* sides: the model's
    window capacity and the simulator's cache size, so the comparison
    isolates the windowing approximation itself.
    """
    if cache_lines < 1:
        raise ArchitectureError(
            f"cache_lines must be >= 1, got {cache_lines}")
    model_loads = []
    exact = []
    for a in matrices:
        if not isinstance(a, CSRMatrix):
            raise ArchitectureError(
                "validate_x_traffic_model expects CSRMatrix inputs")
        # a throwaway model whose L2 window equals the simulated cache
        class _Probe(PerfModel):
            def _l2_lines(self) -> int:
                return cache_lines

        from .arch import get_architecture

        probe = _Probe(get_architecture("Rome"))
        model_loads.append(probe._x_line_loads(a.colidx))
        sim = LRUCache(size=cache_lines * 64, line_size=64,
                       associativity=min(SIM_ASSOCIATIVITY, cache_lines))
        exact.append(simulate_x_misses(a, sim))
    return ValidationReport(
        model_loads=np.array(model_loads, dtype=np.float64),
        exact_misses=np.array(exact, dtype=np.float64),
        labels=tuple(labels) if labels is not None
        else tuple(range(len(model_loads))))
