"""The workload dimension through featurizer, dataset, model, service."""

import numpy as np
import pytest

from repro.advisor.featurize import (
    FEATURE_NAMES,
    WORKLOAD_FEATURE_NAMES,
    featurize,
    workload_features,
)
from repro.advisor.dataset import build_dataset
from repro.advisor.model import MODEL_VERSION, AdvisorModel
from repro.advisor.service import Advisor
from repro.advisor.train import train_model
from repro.errors import AdvisorError
from repro.generators.suite import build_corpus
from repro.machine.arch import get_architecture
from repro.serve import AdviseRequest, AdvisorDaemon, ServeConfig

SEED = 20260808
ARCH = get_architecture("Milan B")


@pytest.fixture(scope="module")
def corpus():
    return build_corpus("tiny", seed=0)[:3]


def test_feature_layout_has_the_workload_block():
    assert WORKLOAD_FEATURE_NAMES == (
        "workload_cg", "workload_jacobi", "workload_spgemm",
        "workload_spmm")
    assert FEATURE_NAMES[-4:] == WORKLOAD_FEATURE_NAMES


def test_workload_one_hot():
    np.testing.assert_array_equal(workload_features("spmv"),
                                  np.zeros(4))
    np.testing.assert_array_equal(workload_features("jacobi"),
                                  [0.0, 1.0, 0.0, 0.0])
    with pytest.raises(AdvisorError, match="unknown workload"):
        workload_features("gmres")


def test_featurize_defaults_to_the_spmv_base_level(corpus):
    a = corpus[0].matrix
    base = featurize(a, ARCH, "1d")
    explicit = featurize(a, ARCH, "1d", "spmv")
    np.testing.assert_array_equal(base, explicit)
    cg = featurize(a, ARCH, "1d", "cg")
    np.testing.assert_array_equal(base[:-4], cg[:-4])
    assert cg[-4] == 1.0 and base[-4] == 0.0


def test_dataset_rows_resolve_workload_specs(corpus):
    rows = build_dataset(corpus, [ARCH], kernels=("1d", "2d", "cg:2d"),
                         seed=0)
    by_kernel = {}
    for r in rows:
        by_kernel.setdefault(r.kernel, []).append(r)
    assert set(by_kernel) == {"1d", "2d", "cg:2d"}
    for r in by_kernel["1d"] + by_kernel["2d"]:
        assert r.workload == "spmv"
        np.testing.assert_array_equal(r.features[-4:], np.zeros(4))
    for r in by_kernel["cg:2d"]:
        assert r.workload == "cg"
        assert r.features[-4] == 1.0
        kernel_2d_idx = FEATURE_NAMES.index("kernel_2d")
        assert r.features[kernel_2d_idx] == 1.0


def test_model_version_guards_the_new_layout(corpus):
    model = train_model(corpus=corpus, architectures=[ARCH], seed=0)
    data = model.to_json()
    assert data["version"] == MODEL_VERSION == 2
    assert "workloads" in data["trained_on"]
    data["version"] = 1
    with pytest.raises(AdvisorError, match="version"):
        AdvisorModel.from_json(data)


def test_advise_caches_per_workload(corpus):
    model = train_model(corpus=corpus, architectures=[ARCH],
                        kernels=("1d", "2d", "cg"), seed=0)
    advisor = Advisor(model)
    a, name = corpus[0].matrix, corpus[0].name
    spmv = advisor.advise(a, ARCH, kernel="1d", matrix_name=name)
    cg = advisor.advise(a, ARCH, kernel="1d", matrix_name=name,
                        workload="cg")
    # distinct cache entries: one advice list per workload level
    assert advisor.stats["advice"]["misses"] >= 2
    again = advisor.advise(a, ARCH, kernel="1d", matrix_name=name,
                           workload="cg")
    assert [a_.row() for a_ in again] == [a_.row() for a_ in cg]
    assert advisor.stats["advice"]["hits"] >= 1
    assert {x.ordering for x in spmv} == {x.ordering for x in cg}


def test_advise_many_threads_workload_through(corpus):
    """The daemon's batch path carries each request's workload through
    to advise(): batched answers equal single calls."""
    model = train_model(corpus=corpus, architectures=[ARCH],
                        kernels=("1d", "2d", "jacobi"), seed=0)
    daemon = AdvisorDaemon(Advisor(model), corpus,
                           ServeConfig(default_arch=ARCH.name))
    requests = [AdviseRequest(id=e.name, matrix=e.name, arch=None,
                              kernel="1d", iterations=None, top=None,
                              client="test", workload="jacobi")
                for e in corpus]
    batched = daemon._advise_batch(requests)
    advisor = Advisor(model)
    singles = [advisor.advise(e.matrix, ARCH, kernel="1d",
                              matrix_name=e.name, workload="jacobi")
               for e in corpus]
    assert len(batched) == len(corpus)
    for got, want in zip(batched, singles):
        assert [a_.row() for a_ in got] == [a_.row() for a_ in want]
