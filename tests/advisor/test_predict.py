import numpy as np
import pytest

from repro.advisor import featurize, matrix_features
from repro.advisor.evaluate import _rules_pick
from repro.advisor.featurize import MATRIX_FEATURE_NAMES
from repro.errors import AdvisorError
from repro.generators import banded_matrix, circuit_matrix, stencil_2d
from repro.machine import get_architecture

#: a 64-thread machine, the rule model's reference thread count
NAPLES = get_architecture("Naples")


def test_matrix_features_shapes():
    a = stencil_2d(10, seed=0)
    f = dict(zip(MATRIX_FEATURE_NAMES, matrix_features(a, nthreads=8)))
    assert len(f) == len(MATRIX_FEATURE_NAMES)
    assert 0 <= f["rel_bandwidth"] <= 1
    assert 0 <= f["rel_offdiag"] <= 1
    assert f["imbalance_1d"] >= 1.0
    assert f["density"] > 0
    assert np.all(np.isfinite(list(f.values())))


def test_matrix_features_empty_rejected():
    from repro.matrix import coo_from_arrays, csr_from_coo

    a = csr_from_coo(coo_from_arrays(0, 0, [], []))
    with pytest.raises(AdvisorError):
        matrix_features(a, nthreads=64)


def test_recommendation_keeps_banded_original():
    a = banded_matrix(2000, 8, seed=0)  # narrow band, balanced
    assert _rules_pick(featurize(a, NAPLES, "1d")) == "original"


def test_recommendation_gp_for_hub_matrices():
    a = circuit_matrix(1000, rail_rows=3, rail_fanout=0.3, seed=0,
                       scrambled=False)
    assert _rules_pick(featurize(a, NAPLES, "1d")) == "GP"


def test_recommendation_for_scattered_mesh():
    a = stencil_2d(30, seed=0, scrambled=True)
    assert _rules_pick(featurize(a, NAPLES, "1d")) in ("RCM", "GP")


def test_recommendation_2d_kernel():
    a = stencil_2d(30, seed=0, scrambled=True)
    assert _rules_pick(featurize(a, NAPLES, "2d")) in ("RCM", "GP")


def test_trained_from_sweep():
    """The learned half of examples/predict_ordering.py: the advisor
    trained on a sweep picks from the orderings that sweep covered."""
    from repro.advisor import Advisor, train_model
    from repro.generators import build_corpus
    from repro.harness import SweepEngine
    from repro.machine import get_architecture

    corpus = build_corpus("tiny", seed=3)[:5]
    rome = get_architecture("Rome")
    sweep = SweepEngine(corpus, [rome], ["RCM", "GP"]).run()
    model = train_model(corpus=corpus, architectures=[rome],
                        orderings=["RCM", "GP"], kernels=("1d",),
                        sweep=sweep)
    assert model.trained_on["rows"] == 5
    advisor = Advisor(model)
    for entry in corpus:
        advice = advisor.advise(entry.matrix, rome, "1d",
                                matrix_name=entry.name)
        assert advice[0].ordering in {"original", "RCM", "GP"}
