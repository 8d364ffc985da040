"""Feature assembly: matrix × architecture × kernel × workload.

The advisor predicts from one flat vector combining four ingredients:

* size-independent structural features from :mod:`repro.features`
  (relative bandwidth and profile, off-diagonal fraction, 1D
  imbalance, density, row CV) plus two log-scale terms,
* descriptors of the target machine (core count, per-core bandwidth,
  per-thread cache, clock, socket count) from :mod:`repro.machine.arch`,
* a kernel indicator (1D row-split vs 2D nonzero-split),
* a workload one-hot (:data:`repro.spmv.registry.WORKLOADS`) telling
  the model whether the schedule runs one SpMV, a CG/Jacobi solver
  loop, SpGEMM or SpMM — plain SpMV is the all-zero base level, so
  pre-workload requests featurize exactly as before.

Matrix features depend on the architecture only through its thread
count, so :class:`repro.advisor.service.Advisor` caches them per
``(matrix, nthreads)`` and re-assembles the full vector per request.
"""

from __future__ import annotations

import numpy as np

from ..errors import AdvisorError
from ..features import (bandwidth, imbalance_factor_1d, offdiagonal_nonzeros,
                        profile)
from ..machine.arch import Architecture
from ..matrix.csr import CSRMatrix
from ..spmv.registry import DEFAULT_WORKLOAD, KERNELS, WORKLOADS

MATRIX_FEATURE_NAMES = (
    "log_nrows",
    "log_nnz",
    "rel_bandwidth",
    "rel_profile",
    "rel_offdiag",
    "imbalance_1d",
    "density",
    "row_cv",
)

ARCH_FEATURE_NAMES = (
    "log2_cores",
    "log2_bw_per_core",
    "log2_cache_per_thread",
    "freq_ghz",
    "sockets",
)

KERNEL_FEATURE_NAMES = ("kernel_2d",)

#: one-hot workload indicators; plain SpMV is the all-zero base level,
#: so the workload axis extends the vector without renaming anything
WORKLOAD_FEATURE_NAMES = tuple(
    f"workload_{w}" for w in WORKLOADS if w != DEFAULT_WORKLOAD)

#: full layout of the advisor feature vector, in order
FEATURE_NAMES = MATRIX_FEATURE_NAMES + ARCH_FEATURE_NAMES \
    + KERNEL_FEATURE_NAMES + WORKLOAD_FEATURE_NAMES


def matrix_features(a: CSRMatrix, nthreads: int) -> np.ndarray:
    """The architecture-independent part (depends only on ``nthreads``)."""
    if a.nrows == 0:
        raise AdvisorError("cannot featurize an empty matrix")
    lengths = a.row_lengths().astype(np.float64)
    mean_len = lengths.mean()
    row_cv = float(lengths.std() / mean_len) if mean_len else 0.0
    rel_bandwidth = bandwidth(a) / a.nrows
    rel_offdiag = offdiagonal_nonzeros(a, nthreads) / max(a.nnz, 1)
    imbalance_1d = imbalance_factor_1d(a, nthreads)
    density = float(a.nnz / a.nrows)
    rel_profile = profile(a) / max(a.nrows * max(a.ncols, 1), 1)
    return np.array([
        np.log1p(a.nrows),
        np.log1p(a.nnz),
        rel_bandwidth,
        rel_profile,
        rel_offdiag,
        imbalance_1d,
        density / 64.0,
        row_cv,
    ])


def arch_features(arch: Architecture) -> np.ndarray:
    """Machine descriptors in roughly comparable (log) scales."""
    return np.array([
        np.log2(arch.cores),
        np.log2(arch.bandwidth / arch.cores / 1e9),
        np.log2(arch.per_thread_cache() / 1024.0),
        arch.freq_ghz,
        float(arch.sockets),
    ])


def kernel_features(kernel: str) -> np.ndarray:
    if kernel not in KERNELS:
        raise AdvisorError(
            f"unknown kernel {kernel!r}; expected one of {KERNELS}")
    return np.array([1.0 if kernel == "2d" else 0.0])


def workload_features(workload: str) -> np.ndarray:
    """One-hot workload indicator (all zeros for plain SpMV)."""
    if workload not in WORKLOADS:
        raise AdvisorError(
            f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return np.array([1.0 if f"workload_{workload}" == name else 0.0
                     for name in WORKLOAD_FEATURE_NAMES])


def assemble(mf: np.ndarray, arch: Architecture, kernel: str,
             workload: str = DEFAULT_WORKLOAD) -> np.ndarray:
    """Combine precomputed matrix features with arch/kernel/workload
    terms."""
    return np.concatenate([mf, arch_features(arch), kernel_features(kernel),
                           workload_features(workload)])


def featurize(a: CSRMatrix, arch: Architecture, kernel: str,
              workload: str = DEFAULT_WORKLOAD) -> np.ndarray:
    """The full advisor feature vector for one request."""
    return assemble(matrix_features(a, arch.threads), arch, kernel,
                    workload)
