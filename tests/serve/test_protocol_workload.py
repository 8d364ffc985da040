"""The advise protocol's workload key and its validation."""

import json

import pytest

from repro.errors import ReproError
from repro.serve.protocol import ProtocolError, parse_advise_request
from repro.spmv.registry import KERNELS as REGISTRY_KERNELS
from repro.spmv.registry import WORKLOADS as REGISTRY_WORKLOADS


def _parse(payload, peer="peer"):
    return parse_advise_request(json.dumps(payload).encode(), peer=peer)


def test_workload_defaults_to_spmv():
    req = _parse({"matrix": "m"})
    assert req.workload == "spmv"


@pytest.mark.parametrize("workload", ("cg", "jacobi", "spgemm", "spmm"))
def test_valid_workloads_accepted(workload):
    req = _parse({"matrix": "m", "workload": workload, "kernel": "2d"})
    assert req.workload == workload
    assert req.kernel == "2d"


def test_unknown_workload_rejected():
    with pytest.raises(ProtocolError, match="'workload' must be one of"):
        _parse({"matrix": "m", "workload": "gmres"})


def test_non_string_workload_rejected():
    with pytest.raises(ProtocolError, match="workload"):
        _parse({"matrix": "m", "workload": 7})


@pytest.mark.parametrize("body", [b"\xff\xfe", b"[1, 2]", b"{"])
def test_malformed_bodies_raise_a_repro_error(body):
    with pytest.raises(ReproError):
        parse_advise_request(body, peer="peer")


def test_protocol_vocabulary_is_the_registry():
    # the satellite bugfix: no more protocol-local KERNELS literal
    from repro.serve import protocol

    assert protocol.KERNELS is REGISTRY_KERNELS
    assert protocol.WORKLOADS is REGISTRY_WORKLOADS
