"""The single source of truth for kernel and workload vocabularies.

Before this module existed, ``serve/protocol.py`` and
``advisor/featurize.py`` each carried their own ``KERNELS = ("1d",
"2d")`` literal — a latent drift bug: adding a kernel to one left the
serve protocol and the featurizer silently disagreeing about what a
valid request looks like.  Every layer now imports from here.

Two vocabularies:

* :data:`KERNELS` — the schedule kinds: the paper's 1D row split and
  2D nonzero split.  The SpMV dispatcher, the check suite, the sweep
  and the advisor all accept exactly these.
* :data:`WORKLOADS` — what is *executed per scheduled iteration*: a
  single SpMV (the paper's setting), a CG or Jacobi solver loop
  (hundreds of SpMVs on one reordered matrix), SpGEMM (A·A) or SpMM
  (one matrix times several dense vectors).

A **workload spec** is the string the sweep/measurement kernel axis
carries: either a bare kernel kind (``"1d"`` — plain SpMV, backward
compatible), a bare workload name (``"cg"`` — defaults to the 1D
schedule), or ``"workload:kind"`` (``"cg:2d"``).
:func:`resolve_workload` normalises all three forms.
"""

from __future__ import annotations

from ..errors import ScheduleError

#: the schedule kinds (the paper's two algorithms)
KERNELS = ("1d", "2d")

#: workloads the machine model can score on a scheduled matrix
WORKLOADS = ("spmv", "cg", "jacobi", "spgemm", "spmm")

#: the backward-compatible default: one SpMV iteration
DEFAULT_WORKLOAD = "spmv"

#: schedule kind a bare workload name resolves to
DEFAULT_KERNEL = "1d"


def resolve_workload(spec: str) -> tuple:
    """Normalise a workload spec to ``(workload, kernel_kind)``.

    ``"1d"`` → ``("spmv", "1d")`` (plain SpMV, the historical kernel
    axis); ``"cg"`` → ``("cg", "1d")``; ``"spgemm:2d"`` →
    ``("spgemm", "2d")``.  Raises :class:`ScheduleError` on anything
    else, naming both vocabularies.
    """
    if not isinstance(spec, str):
        raise ScheduleError(
            f"workload spec must be a string, got {type(spec).__name__}")
    if spec in KERNELS:
        return DEFAULT_WORKLOAD, spec
    workload, _, kind = spec.partition(":")
    kind = kind or DEFAULT_KERNEL
    if workload not in WORKLOADS:
        raise ScheduleError(
            f"unknown kernel/workload spec {spec!r}; expected a kernel "
            f"kind {KERNELS}, a workload {WORKLOADS}, or "
            f"'workload:kind'")
    if kind not in KERNELS:
        raise ScheduleError(
            f"unknown schedule kind {kind!r} in spec {spec!r}; "
            f"expected one of {KERNELS}")
    return workload, kind


def is_workload_spec(spec) -> bool:
    """True iff ``spec`` resolves to something other than plain SpMV
    on a bare kernel kind (i.e. needs the workload scoring path)."""
    try:
        workload, _ = resolve_workload(spec)
    except ScheduleError:
        return False
    return workload != DEFAULT_WORKLOAD
