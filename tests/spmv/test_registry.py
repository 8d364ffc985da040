"""The single-source kernel/workload registry and its spec grammar."""

import pytest

from repro.errors import ScheduleError
from repro.spmv.registry import (
    DEFAULT_KERNEL,
    DEFAULT_WORKLOAD,
    KERNELS,
    WORKLOADS,
    is_workload_spec,
    resolve_workload,
)


def test_vocabulary():
    assert KERNELS == ("1d", "2d")
    assert WORKLOADS == ("spmv", "cg", "jacobi", "spgemm", "spmm")
    assert DEFAULT_WORKLOAD == "spmv"
    assert DEFAULT_KERNEL == "1d"


@pytest.mark.parametrize("spec,expected", [
    ("1d", ("spmv", "1d")),
    ("2d", ("spmv", "2d")),
    ("spmm:2d", ("spmm", "2d")),
    ("cg", ("cg", "1d")),
    ("spgemm", ("spgemm", "1d")),
    ("jacobi:2d", ("jacobi", "2d")),
])
def test_resolve_workload_grammar(spec, expected):
    assert resolve_workload(spec) == expected


@pytest.mark.parametrize("spec", ["", "nope", "cg:3d", "spmv:xx",
                                  "cg:jacobi", ":1d", "merge",
                                  "cg:merge"])
def test_resolve_workload_rejects_unknown_specs(spec):
    with pytest.raises(ScheduleError):
        resolve_workload(spec)


def test_is_workload_spec():
    assert is_workload_spec("cg")
    assert is_workload_spec("spgemm:2d")
    assert not is_workload_spec("1d")
    assert not is_workload_spec("merge")


def test_protocol_and_featurizer_share_the_registry():
    # one vocabulary, imported everywhere — the serving protocol, the
    # advisor featurizer and the check suite must not carry their own
    # kernel tuples
    import importlib

    from repro.check import kernels as check_kernels

    # importlib sidesteps the package attribute of the same name (the
    # re-exported featurize() function shadows the submodule)
    featurize_mod = importlib.import_module("repro.advisor.featurize")
    from repro.serve import protocol

    assert protocol.KERNELS is KERNELS
    assert protocol.WORKLOADS is WORKLOADS
    assert featurize_mod.KERNELS is KERNELS
    assert featurize_mod.WORKLOADS is WORKLOADS
    assert check_kernels.KERNELS is KERNELS
