"""Replay sweep results into labeled training rows for the advisor.

One :class:`DatasetRow` is one (matrix, architecture, kernel) cell of a
:class:`repro.harness.runner.SweepResult`: the advisor feature vector,
the modelled speedup of every ordering over the natural order, the
modelled-best ordering as the label, the §4.4 taxonomy class of that
winner, and the reordering wall-clock costs needed for the Table 5
break-even logic.

:func:`build_dataset` either replays an existing sweep or runs a fresh
one through :class:`repro.harness.engine.SweepEngine`; either way the
permutations flow through the shared :class:`OrderingCache`, so the
reordering pass is paid once per corpus.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..analysis.classes import ClassificationInput, classify_matrix
from ..errors import AdvisorError
from ..harness.engine import SweepEngine
from ..harness.runner import OrderingCache, SweepResult
from ..spmv.registry import KERNELS, resolve_workload
from .featurize import assemble, matrix_features

#: taxonomy placeholder when the sweep lacks one of the two kernels
CLASS_UNKNOWN = 0


@dataclass(frozen=True)
class DatasetRow:
    """One labeled training example for the advisor."""

    matrix: str
    group: str
    tags: tuple
    architecture: str
    kernel: str                 # workload spec, as on the sweep axis
    nnz: int
    features: np.ndarray
    speedups: dict = field(default_factory=dict)   # ordering -> speedup
    best: str = "original"
    best_speedup: float = 1.0
    taxonomy_class: int = CLASS_UNKNOWN
    reorder_seconds: dict = field(default_factory=dict)
    spmv_seconds: float = 0.0                      # baseline s/iteration
    workload: str = "spmv"      # resolved workload of the spec


def _best_ordering(speedups: dict) -> tuple:
    """Highest speedup; ties broken by name for determinism."""
    return min(speedups.items(), key=lambda kv: (-kv[1], kv[0]))


def build_dataset(corpus: list, architectures: list, orderings=None,
                  kernels: tuple = KERNELS,
                  cache: OrderingCache | None = None,
                  sweep: SweepResult | None = None, seed=0) -> list:
    """Labeled rows for every (corpus entry, architecture, kernel).

    Parameters
    ----------
    corpus:
        List of :class:`repro.generators.CorpusEntry`.
    orderings:
        Candidate reorderings (defaults to the paper's six).
    sweep:
        A pre-computed sweep to replay.  It should cover ``corpus`` ×
        ``architectures`` × ``kernels`` × ``orderings``; when ``None``
        a fresh fault-tolerant sweep is run (through ``cache``).
        Cells the sweep engine journaled as :class:`FailedCell` (or
        that are simply absent) are skipped, not fatal: a failed
        ordering drops out of that matrix's candidate set, and a failed
        baseline drops the whole (matrix, architecture) row.
    """
    if not corpus:
        raise AdvisorError("cannot build a dataset from an empty corpus")
    if not architectures:
        raise AdvisorError("dataset needs at least one architecture")
    if orderings is None:
        from ..harness.experiments import REORDERINGS
        orderings = REORDERINGS
    orderings = tuple(o for o in orderings if o != "original")
    cache = cache or OrderingCache()
    if sweep is None:
        sweep = SweepEngine(corpus, architectures, list(orderings),
                            kernels=kernels, cache=cache,
                            seed=seed).run()
    rows = []
    for entry in corpus:
        a = entry.matrix
        for arch in architectures:
            try:
                base = {k: sweep.lookup(entry.name, "original", k,
                                        arch.name)
                        for k in kernels}
            except KeyError:
                continue  # baseline failed: no labels for this row
            # keep only orderings whose every kernel cell succeeded
            # and whose permutation is (re)computable for the costs
            usable = []
            reorder_seconds = {}
            for o in orderings:
                try:
                    for kernel in kernels:
                        sweep.lookup(entry.name, o, kernel, arch.name)
                    reorder_seconds[o] = cache.get(
                        a, entry.name, o, nparts=arch.gp_parts,
                        seed=seed).seconds
                except Exception:  # missing cell or flaky reordering
                    reorder_seconds.pop(o, None)
                    continue
                usable.append(o)
            mf = matrix_features(a, arch.threads)
            per_kernel = {}
            for kernel in kernels:
                sp = {"original": 1.0}
                for o in usable:
                    rec = sweep.lookup(entry.name, o, kernel, arch.name)
                    sp[o] = rec.gflops_max / base[kernel].gflops_max
                per_kernel[kernel] = sp
            for kernel in kernels:
                sp = per_kernel[kernel]
                best, best_speedup = _best_ordering(sp)
                cls = CLASS_UNKNOWN
                if best != "original" and {"1d", "2d"} <= set(kernels):
                    rec1 = sweep.lookup(entry.name, best, "1d", arch.name)
                    cls = classify_matrix(ClassificationInput(
                        speedup_1d=per_kernel["1d"][best],
                        speedup_2d=per_kernel["2d"][best],
                        imbalance_before=base["1d"].imbalance,
                        imbalance_after=rec1.imbalance))
                # the sweep axis carries workload specs; the feature
                # vector wants the resolved (base kind, workload) pair
                workload, base_kind = resolve_workload(kernel)
                rows.append(DatasetRow(
                    matrix=entry.name,
                    group=entry.group,
                    tags=entry.tags,
                    architecture=arch.name,
                    kernel=kernel,
                    nnz=a.nnz,
                    features=assemble(mf, arch, base_kind, workload),
                    speedups=sp,
                    best=best,
                    best_speedup=best_speedup,
                    taxonomy_class=cls,
                    reorder_seconds=reorder_seconds,
                    spmv_seconds=base[kernel].seconds,
                    workload=workload,
                ))
    return rows
