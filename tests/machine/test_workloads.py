"""The machine model's workload axis: scoring and simulation."""

import dataclasses

import numpy as np
import pytest

from repro.errors import ScheduleError
from repro.generators import fem_mesh_2d, stencil_2d
from repro.machine import (
    PerfModel,
    get_architecture,
    predict_workload,
    simulate_measurement,
)
from repro.machine.bench import MeasurementRecord
from repro.machine.workloads import ITERATIONS, SPMM_VECTORS
from repro.matrix.build import csr_from_dense
from repro.spmv.schedule import schedule_1d

SEED = 20260808
ARCH = get_architecture("Milan B")


@pytest.fixture(scope="module")
def matrix():
    return stencil_2d(9, 8, seed=SEED)


@pytest.fixture(scope="module")
def spmv_pred(matrix):
    model = PerfModel(ARCH)
    return model.predict(matrix, schedule_1d(matrix, ARCH.threads))


def test_spmv_workload_is_the_identity(matrix, spmv_pred):
    wp = predict_workload(matrix, "spmv", ARCH, spmv_pred)
    assert wp.seconds == spmv_pred.seconds
    assert wp.gflops == spmv_pred.gflops
    assert wp.iterations == 1
    assert wp.spmv is spmv_pred


@pytest.mark.parametrize("solver", ("cg", "jacobi"))
def test_solver_workloads_scale_with_iterations(matrix, spmv_pred, solver):
    wp = predict_workload(matrix, solver, ARCH, spmv_pred)
    assert wp.iterations == ITERATIONS[solver]
    assert wp.seconds == pytest.approx(
        wp.iterations * wp.seconds_per_iteration)
    # the per-iteration time is the SpMV plus dense vector streams
    assert wp.seconds_per_iteration > spmv_pred.seconds
    # vector traffic dilutes the SpMV share, so solver Gflop/s differ
    # from the raw kernel's
    assert wp.gflops != spmv_pred.gflops


def test_cg_streams_more_vectors_than_jacobi(matrix, spmv_pred):
    cg = predict_workload(matrix, "cg", ARCH, spmv_pred)
    ja = predict_workload(matrix, "jacobi", ARCH, spmv_pred)
    assert cg.seconds_per_iteration > ja.seconds_per_iteration


def test_spgemm_scales_by_row_gather_intensity(matrix, spmv_pred):
    wp = predict_workload(matrix, "spgemm", ARCH, spmv_pred)
    from repro.spmv.products import spgemm_flops

    flops = spgemm_flops(matrix)
    intensity = max((flops / 2.0) / matrix.nnz, 1.0)
    assert wp.flops == flops
    assert wp.seconds == pytest.approx(spmv_pred.seconds * intensity)
    assert intensity > 1.0          # stencils square to >1 product/nnz


def test_spgemm_workload_rejects_rectangular(spmv_pred):
    rng = np.random.default_rng(SEED)
    rect = csr_from_dense(rng.random((4, 6)))
    with pytest.raises(ScheduleError, match="square"):
        predict_workload(rect, "spgemm", ARCH, spmv_pred)


def test_spmm_amortises_the_matrix_stream(matrix, spmv_pred):
    wp = predict_workload(matrix, "spmm", ARCH, spmv_pred)
    assert wp.flops == 2.0 * matrix.nnz * SPMM_VECTORS
    # k vectors never cost more than k independent SpMVs, and the
    # amortised matrix stream makes them strictly cheaper
    assert wp.seconds < SPMM_VECTORS * spmv_pred.seconds
    assert wp.seconds >= spmv_pred.seconds
    assert wp.gflops > spmv_pred.gflops


def test_unknown_workload_raises(matrix, spmv_pred):
    with pytest.raises(ScheduleError, match="unknown workload"):
        predict_workload(matrix, "gmres", ARCH, spmv_pred)


# ----------------------------------------------------------------------
# the workload axis and the measurement-shaped simulation
# ----------------------------------------------------------------------
def test_predict_workload_axis_shares_one_spmv_prediction(matrix,
                                                          spmv_pred):
    out = {w: predict_workload(matrix, w, ARCH, spmv_pred)
           for w in ("spmv", "cg", "spmm")}
    assert out["cg"].seconds > out["spmv"].seconds
    # every workload entry shares the same underlying SpMV prediction
    for wp in out.values():
        assert wp.spmv is spmv_pred


def test_simulate_measurement_workload_specs(matrix):
    base = simulate_measurement(matrix, ARCH, "1d", matrix_name="m")
    cg = simulate_measurement(matrix, ARCH, "cg", matrix_name="m")
    cg_2d = simulate_measurement(matrix, ARCH, "cg:2d", matrix_name="m")
    assert base.workload == "spmv"
    assert cg.workload == "cg" and cg.kernel == "cg"
    assert cg_2d.kernel == "cg:2d"
    assert cg.seconds > base.seconds
    assert cg.gflops_mean != base.gflops_mean


def test_simulate_measurement_mixed_specs():
    recs = []
    for name, a in (("a", stencil_2d(6, 6, seed=SEED)),
                    ("b", fem_mesh_2d(30, seed=SEED))):
        recs.extend(simulate_measurement(a, ARCH, kernel, matrix_name=name)
                    for kernel in ("1d", "cg", "spmm:2d"))
    kernels = {r.kernel for r in recs}
    assert kernels == {"1d", "cg", "spmm:2d"}
    workloads = {r.kernel: r.workload for r in recs}
    assert workloads == {"1d": "spmv", "cg": "cg", "spmm:2d": "spmm"}


def test_measurement_record_journal_backward_compat(matrix):
    # journal replay builds records as MeasurementRecord(**data); old
    # journals lack the workload field, which must default to spmv
    fields = [f.name for f in dataclasses.fields(MeasurementRecord)]
    assert fields[-1] == "workload"
    rec = simulate_measurement(matrix, ARCH, "1d", matrix_name="m")
    old = dataclasses.asdict(rec)
    old.pop("workload")
    replayed = MeasurementRecord(**old)
    assert replayed.workload == "spmv"
    assert replayed.seconds == rec.seconds
