import numpy as np
import pytest

from repro.analysis import boxplot_summary, geomean
from repro.errors import HarnessError


def test_geomean_known():
    assert geomean([1.0, 4.0]) == pytest.approx(2.0)
    assert geomean([2.0, 2.0, 2.0]) == pytest.approx(2.0)


def test_geomean_single():
    assert geomean([3.5]) == pytest.approx(3.5)


def test_geomean_empty_rejected():
    with pytest.raises(HarnessError):
        geomean([])


def test_geomean_nonpositive_rejected():
    with pytest.raises(HarnessError):
        geomean([1.0, 0.0])
    with pytest.raises(HarnessError):
        geomean([1.0, -2.0])


def test_geomean_below_arith_mean(rng):
    vals = rng.uniform(0.5, 2.0, 100)
    assert geomean(vals) <= vals.mean() + 1e-12


def test_boxplot_summary_ordered():
    lo, q1, med, q3, hi = boxplot_summary(np.arange(1, 101, dtype=float))
    assert lo <= q1 <= med <= q3 <= hi
    assert med == pytest.approx(50.5)


def test_boxplot_whiskers_exclude_outliers():
    vals = np.concatenate([np.ones(99), [1000.0]])
    lo, q1, med, q3, hi = boxplot_summary(vals)
    assert hi < 1000.0


def test_boxplot_empty_rejected():
    with pytest.raises(HarnessError):
        boxplot_summary([])
