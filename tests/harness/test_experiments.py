"""Integration tests: every paper experiment runs end-to-end on a tiny
corpus and produces sanely-shaped output."""

import numpy as np
import pytest

from repro.errors import HarnessError
from repro.generators import build_corpus
from repro.harness import (
    OrderingCache,
    SweepEngine,
    SweepResult,
    dense_reference_experiment,
    experiment_cholesky_fill,
    experiment_feature_profiles,
    experiment_fig1_showcase,
    experiment_overhead,
    experiment_speedups,
    two_d_vs_one_d,
)
from repro.harness.experiments import (
    REORDERINGS,
    amortization_iterations,
    experiment_classes,
)
from repro.machine import get_architecture


@pytest.fixture(scope="module")
def corpus():
    return build_corpus("tiny", seed=0)[:6]


@pytest.fixture(scope="module")
def cache():
    return OrderingCache()


@pytest.fixture(scope="module")
def sweep(corpus, cache):
    archs = [get_architecture(n) for n in ("Rome", "Milan B")]
    return SweepEngine(corpus, archs, list(REORDERINGS), cache=cache).run()


def test_speedup_study_shapes(sweep):
    study = experiment_speedups(sweep, ["Rome", "Milan B"], "1d")
    assert ("Rome", "GP") in study.geomeans
    assert len(study.boxes[("Milan B", "RCM")]) == 5
    table = study.geomean_table(["Rome", "Milan B"], list(REORDERINGS))
    assert len(table) == 3  # 2 archs + mean row
    assert table[-1][0] == "Mean"


@pytest.mark.parametrize("ordering", ["original", "HP"])
def test_speedups_raise_naming_a_missing_cell(sweep, corpus, ordering):
    # a gap must not silently shrink one arch's distribution
    cell = (corpus[2].name, ordering, "1d", "Milan B")
    partial = SweepResult(records=[
        r for r in sweep.records
        if (r.matrix, r.ordering, r.kernel, r.architecture) != cell])
    with pytest.raises(HarnessError, match="/".join(cell)):
        experiment_speedups(partial, ["Rome", "Milan B"], "1d")
    # the other kernel is complete and still tabulates
    experiment_speedups(partial, ["Rome", "Milan B"], "2d")


def test_speedups_positive(sweep):
    study = experiment_speedups(sweep, ["Rome"], "2d")
    for o in REORDERINGS:
        assert study.geomeans[("Rome", o)] > 0


def test_fig1_showcase(cache):
    out = experiment_fig1_showcase(cache=cache, scale=0.2)
    assert len(out) == 6  # 3 matrices x 2 archs
    for cell in out.values():
        assert set(cell) == {"RCM", "ND", "GP"}
        for v in cell.values():
            assert v > 0


def test_classes_experiment(cache):
    out = experiment_classes(cache=cache, scale=0.15)
    assert set(out) == {1, 2, 3, 4, 5, 6}
    for cls, data in out.items():
        for arch in ("Milan B", "Ice Lake", "Hi1620"):
            assert arch in data
            for o, cell in data[arch].items():
                assert cell["class"] in range(1, 7)
                assert cell["imbalance_after"] >= 1.0


def test_feature_profiles(corpus, cache):
    profiles = experiment_feature_profiles(corpus, cache)
    assert set(profiles) == {"bandwidth", "profile", "offdiag",
                             "spmv_time"}
    for prof in profiles.values():
        assert "original" in prof and "RCM" in prof


def test_cholesky_fill_experiment(corpus, cache):
    fills = experiment_cholesky_fill(corpus, cache)
    assert "original" in fills and "AMD" in fills
    assert "Gray" not in fills
    raw = fills["_raw"]
    for v in raw.values():
        assert all(x >= 0.5 for x in v)


def test_overhead_experiment():
    rows = experiment_overhead(scale=0.1)
    assert len(rows) == 10
    for row in rows:
        assert len(row) == 8
        assert all(v >= 0 for v in row[1:])


def test_amortization():
    # europe_osm example from §4.7: 15.4s reorder, 0.013s SpMV, 22% gain
    iters = amortization_iterations(15.4, 0.013, 1.22)
    assert iters == pytest.approx(6568, rel=0.01)
    assert amortization_iterations(1.0, 0.01, 0.9) == float("inf")


def test_dense_reference():
    out = dense_reference_experiment(scale=0.05)
    assert out["fraction_of_peak"] < 1.0
    assert out["gflops"] > 0


def test_two_d_vs_one_d(sweep):
    ratios = two_d_vs_one_d(sweep, "Rome")
    assert ratios.size == 6
    assert np.all(ratios > 0)


def test_report_rendering(sweep, corpus, cache):
    from repro.harness.report import (
        render_boxplot_figure,
        render_fig1,
        render_geomean_table,
        render_overhead_table,
        render_profile_figure,
        render_two_d_vs_one_d,
    )

    study = experiment_speedups(sweep, ["Rome"], "1d")
    txt = render_geomean_table(study, ["Rome"], "Table 3")
    assert "Table 3" in txt and "GP" in txt
    txt = render_boxplot_figure(study, ["Rome"], "Figure 2")
    assert "Rome" in txt
    showcase = experiment_fig1_showcase(cache=cache, scale=0.1)
    assert "Figure 1" in render_fig1(showcase)
    profiles = experiment_feature_profiles(corpus, cache)
    txt = render_profile_figure(
        profiles, ["original", "RCM", "GP"])
    assert "bandwidth" in txt
    rows = experiment_overhead(scale=0.05)
    assert "Table 5" in render_overhead_table(rows)
    ratios = two_d_vs_one_d(sweep, "Rome")
    assert "2D vs 1D" in render_two_d_vs_one_d(ratios, "Rome")
