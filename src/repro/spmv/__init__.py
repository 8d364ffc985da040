"""CSR SpMV kernels and thread schedules (paper §3.1).

Two shared-memory parallel kernels over CSR:

* **1D algorithm** — rows split into equal-sized contiguous blocks, one
  per thread (OpenMP static row split).  Simple, but imbalanced when
  nonzeros are unevenly distributed over rows.
* **2D algorithm** — matrix *nonzeros* split evenly; threads may own
  partial rows at their boundaries, handled with per-thread partial
  sums exactly like the paper's race-free implementation.

This being a pure-Python reproduction, the kernels run as one
vectorised pass whose result is bit-identical to executing the thread
segments in turn; the timing comes from :mod:`repro.machine`, not the
wall clock.
"""

from .registry import (
    DEFAULT_KERNEL,
    DEFAULT_WORKLOAD,
    KERNELS,
    WORKLOADS,
    is_workload_spec,
    resolve_workload,
)
from .schedule import Schedule, schedule_1d, schedule_2d
from .kernels import spmv, spmv_1d, spmv_2d
from .products import spgemm, spgemm_flops, spmm

__all__ = [
    "DEFAULT_KERNEL",
    "DEFAULT_WORKLOAD",
    "KERNELS",
    "WORKLOADS",
    "Schedule",
    "is_workload_spec",
    "resolve_workload",
    "schedule_1d",
    "schedule_2d",
    "spgemm",
    "spgemm_flops",
    "spmm",
    "spmv",
    "spmv_1d",
    "spmv_2d",
]
