"""Geometric means and distribution summaries (Tables 3/4, Figs 2/3)."""

from __future__ import annotations

import numpy as np

from ..errors import HarnessError


def geomean(values) -> float:
    """Geometric mean of positive values (the paper's Tables 3/4)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise HarnessError("geometric mean of an empty sequence")
    if np.any(arr <= 0):
        raise HarnessError("geometric mean requires positive values")
    return float(np.exp(np.log(arr).mean()))


def boxplot_summary(values, whisker: float = 1.5) -> tuple:
    """Five-number summary (lo-whisker, q1, median, q3, hi-whisker).

    Whiskers follow the Tukey convention (most extreme points within
    ``whisker``·IQR of the box), matching typical boxplot rendering of
    the paper's Figures 2/3/6.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise HarnessError("boxplot of an empty sequence")
    q1, med, q3 = np.percentile(arr, [25, 50, 75])
    iqr = q3 - q1
    lo_lim = q1 - whisker * iqr
    hi_lim = q3 + whisker * iqr
    inside = arr[(arr >= lo_lim) & (arr <= hi_lim)]
    lo = float(inside.min()) if inside.size else float(q1)
    hi = float(inside.max()) if inside.size else float(q3)
    return (lo, float(q1), float(med), float(q3), hi)
