"""Workload scoring: CG/Jacobi loops, SpGEMM and SpMM on the SpMV model.

The analytical model (:class:`repro.machine.PerfModel`) predicts one
warm-cache SpMV iteration.  Real workloads wrap that iteration — and
reordering pays off differently in each wrapper:

* **cg / jacobi** — ``ITERATIONS[w]`` repeated SpMVs on the *same*
  reordered matrix plus dense vector traffic per iteration.  The SpMV
  term (where ordering matters) is diluted by the ordering-insensitive
  vector streams, so solver speedups are milder than raw SpMV ones,
  but the one-off reordering cost amortises over every iteration.
* **spgemm** (A·A) — each nonzero ``(i, k)`` of A gathers row ``k`` of
  A, so the column-access locality the SpMV x-gather window measures
  governs the gather stream here too.  The score scales the calibrated
  SpMV iteration by the *row-gather intensity* (partial products per
  nonzero), keeping load balance and locality effects — including
  their ordering sensitivity — from the underlying prediction.
* **spmm** (A·X, ``SPMM_VECTORS`` dense columns) — the CSR arrays are
  streamed once for all columns while x-gather traffic and compute
  scale with the column count, so the matrix-stream share of the SpMV
  time is amortised by the bytes ratio.

Everything is a deterministic, closed-form function of one
:class:`~repro.machine.model.SpmvPrediction`, so every workload of a
cell is scored from the one SpMV prediction of that cell.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ScheduleError
from ..matrix.csr import CSRMatrix
from ..spmv.products import spgemm_flops
from .arch import Architecture
from .model import BANDWIDTH_EFFICIENCY, SpmvPrediction, X_BYTES_PER_LOAD

#: scoring iteration counts for the solver loops — the "hundreds of
#: repeated SpMVs" regime of Table 5, kept at a round calibrated value
#: so scores are comparable across matrices
ITERATIONS = {"spmv": 1, "cg": 100, "jacobi": 100, "spgemm": 1, "spmm": 1}

#: dense n-vector streams per solver iteration beyond the SpMV itself:
#: CG touches x/p/q/r updates plus two dot products (~10 passes),
#: Jacobi the residual/diagonal-scale updates (~6 passes)
VECTOR_WORDS = {"cg": 10.0, "jacobi": 6.0}

#: extra flops per matrix row and solver iteration (axpy/dot work)
ROW_FLOPS = {"cg": 10.0, "jacobi": 3.0}

#: dense right-hand-side block width the SpMM workload is scored at
SPMM_VECTORS = 8


@dataclass(frozen=True)
class WorkloadPrediction:
    """Model output for one (matrix, schedule, architecture, workload)."""

    workload: str
    seconds: float              # total modelled workload time
    seconds_per_iteration: float
    iterations: int
    flops: float                # total floating-point work scored
    gflops: float
    spmv: SpmvPrediction        # the underlying SpMV-iteration score


def _vector_pass_seconds(arch: Architecture, n: int, words: float) -> float:
    """Streamed dense-vector traffic at sustained machine bandwidth."""
    return words * 8.0 * n / (arch.bandwidth * BANDWIDTH_EFFICIENCY)


def predict_workload(a: CSRMatrix, workload: str, arch: Architecture,
                     pred: SpmvPrediction) -> WorkloadPrediction:
    """Score ``workload`` on ``a`` from its SpMV prediction ``pred``.

    ``pred`` must be the :meth:`PerfModel.predict` output for the
    schedule the workload runs under; everything else is closed-form,
    so batched and per-cell callers agree bit-for-bit.
    """
    if workload == "spmv":
        flops = 2.0 * a.nnz
        return WorkloadPrediction(
            workload="spmv", seconds=pred.seconds,
            seconds_per_iteration=pred.seconds, iterations=1,
            flops=flops, gflops=pred.gflops, spmv=pred)
    if workload in ("cg", "jacobi"):
        iterations = ITERATIONS[workload]
        per_iter = pred.seconds + _vector_pass_seconds(
            arch, a.nrows, VECTOR_WORDS[workload])
        seconds = iterations * per_iter
        flops = iterations * (2.0 * a.nnz + ROW_FLOPS[workload] * a.nrows)
        return WorkloadPrediction(
            workload=workload, seconds=seconds,
            seconds_per_iteration=per_iter, iterations=iterations,
            flops=flops, gflops=flops / seconds / 1e9, spmv=pred)
    if workload == "spgemm":
        if not a.is_square:
            raise ScheduleError(
                f"spgemm workload squares A, which needs a square "
                f"matrix; got {a.nrows}x{a.ncols}")
        flops = spgemm_flops(a)
        # partial products per nonzero: how many row-gather passes one
        # calibrated SpMV iteration is repeated for (>= 1 so an empty
        # product never scores below a plain pass over A)
        intensity = max((flops / 2.0) / max(a.nnz, 1), 1.0)
        seconds = pred.seconds * intensity
        return WorkloadPrediction(
            workload="spgemm", seconds=seconds,
            seconds_per_iteration=seconds, iterations=1, flops=flops,
            gflops=flops / seconds / 1e9 if seconds else 0.0, spmv=pred)
    if workload == "spmm":
        k = SPMM_VECTORS
        x_bytes = X_BYTES_PER_LOAD * pred.x_line_loads
        a_bytes = max(pred.bytes_total - x_bytes, 0.0)
        # matrix stream paid once, gathers/compute k times
        scale = ((a_bytes + k * x_bytes) / pred.bytes_total
                 if pred.bytes_total else float(k))
        seconds = pred.seconds * max(scale, 1.0)
        flops = 2.0 * a.nnz * k
        return WorkloadPrediction(
            workload="spmm", seconds=seconds,
            seconds_per_iteration=seconds, iterations=1, flops=flops,
            gflops=flops / seconds / 1e9 if seconds else 0.0, spmv=pred)
    raise ScheduleError(
        f"unknown workload {workload!r}; expected one of "
        f"{tuple(ITERATIONS)}")
