"""Throughput benchmark of the memoised model-evaluation fast path.

Measures the same grid twice — every (matrix, ordering) variant of the
corpus under all eight architectures and both kernels:

* **legacy**: fresh matrix objects and ``fastpath=False`` models, i.e.
  per-cell schedule rebuilds and the per-thread, per-window
  ``np.unique`` working-set loop;
* **fast**: per-cell :func:`repro.machine.bench.simulate_measurement`
  calls on one fresh matrix object per variant, where one
  :class:`~repro.machine.reuse.ReuseStats` pass and the schedule
  cache memoised on that matrix serve all cells of the variant.

The two record lists must be bit-identical.  The regression gate is
*counter-based*, not wall-time-based (CI machines are noisy): the fast
pass must issue zero ``np.unique`` calls, exactly one statistics build
per variant, and exactly one schedule build per distinct
(thread-count, kernel) pair per variant.  The measured speedup lands
in ``benchmarks/output/<tier>/bench_model_fastpath.json``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.harness.experiments import REORDERINGS
from repro.machine.bench import simulate_measurement
from repro.machine.model import PerfModel
from repro.matrix.csr import CSRMatrix
from repro.obs.metrics import REGISTRY
from repro.util import format_table

from conftest import SEED, TIER

#: GP part count for the benchmark variants (one permutation per
#: matrix; this bench measures model throughput, not the sweep grid)
GP_PARTS = 64


def _fresh(a: CSRMatrix) -> CSRMatrix:
    """A copy with no memoised statistics/schedules attached."""
    return CSRMatrix(a.nrows, a.ncols, a.rowptr.copy(), a.colidx.copy(),
                     a.values.copy())


def _build_variants(corpus, ordering_cache):
    variants = []
    for e in corpus:
        variants.append((f"{e.name}/original", e.matrix))
        for name in REORDERINGS:
            result = ordering_cache.get(e.matrix, e.name, name,
                                        nparts=GP_PARTS, seed=SEED)
            variants.append((f"{e.name}/{name}", result.apply(e.matrix)))
    return variants


class _UniqueCounter:
    """Count ``np.unique`` calls made inside a with-block."""

    def __init__(self):
        self.calls = 0

    def __enter__(self):
        self._orig = np.unique

        def counted(*args, **kwargs):
            self.calls += 1
            return self._orig(*args, **kwargs)

        np.unique = counted
        return self

    def __exit__(self, *exc):
        np.unique = self._orig


def test_fastpath_speedup_and_operation_counts(corpus, ordering_cache,
                                               all_architectures, emit,
                                               emit_json):
    archs = all_architectures
    variants = _build_variants(corpus, ordering_cache)
    ncells = len(variants) * len(archs) * 2
    thread_counts = {a.threads for a in archs}

    # -- legacy pass: per-cell recomputation ---------------------------
    legacy_models = [PerfModel(a, fastpath=False) for a in archs]
    with _UniqueCounter() as legacy_unique:
        t0 = time.perf_counter()
        legacy_records = [
            simulate_measurement(_fresh(m), arch, kernel, label, "",
                                 model=model)
            for label, m in variants
            for arch, model in zip(archs, legacy_models)
            for kernel in ("1d", "2d")]
        legacy_s = time.perf_counter() - t0

    # -- fast pass: shared statistics, fresh matrices ------------------
    fast_models = [PerfModel(a) for a in archs]
    counters_before = REGISTRY.values()
    with _UniqueCounter() as fast_unique:
        t0 = time.perf_counter()
        fast_records = []
        for label, m in variants:
            b = _fresh(m)
            fast_records.extend(
                simulate_measurement(b, arch, kernel, label, "",
                                     model=model)
                for arch, model in zip(archs, fast_models)
                for kernel in ("1d", "2d"))
        fast_s = time.perf_counter() - t0
    counters_after = REGISTRY.values()
    delta = {k: counters_after.get(k, 0) - counters_before.get(k, 0)
             for k in ("reuse.builds", "reuse.hits", "schedule.builds",
                       "schedule.hits")}

    # -- equivalence and operation-count gates -------------------------
    mismatch = [(f.matrix, f.architecture, f.kernel)
                for f, l in zip(fast_records, legacy_records) if f != l]
    assert fast_records == legacy_records, \
        f"{len(mismatch)} cells differ, first: {mismatch[:3]}"
    assert fast_unique.calls == 0, \
        "fast path must not call np.unique"
    assert legacy_unique.calls > 0
    assert delta["reuse.builds"] == len(variants), \
        "expected exactly one statistics build per (matrix, ordering)"
    assert delta["reuse.hits"] == ncells - len(variants)
    assert delta["schedule.builds"] == \
        len(variants) * len(thread_counts) * 2
    assert delta["schedule.hits"] == \
        len(variants) * (len(archs) - len(thread_counts)) * 2

    speedup = legacy_s / fast_s
    # soft wall-time sanity only — the hard gates above are counters
    assert speedup > 2.0, f"fast path only {speedup:.2f}x faster"

    artifact = {
        "tier": TIER,
        "seed": SEED,
        "variants": len(variants),
        "cells": ncells,
        "legacy_seconds": round(legacy_s, 4),
        "fast_seconds": round(fast_s, 4),
        "speedup": round(speedup, 2),
        "cells_per_sec_legacy": round(ncells / legacy_s, 1),
        "cells_per_sec_fast": round(ncells / fast_s, 1),
        "np_unique_calls_legacy": legacy_unique.calls,
        "np_unique_calls_fast": fast_unique.calls,
        "counters": delta,
    }
    emit_json("bench_model_fastpath", artifact)
    rows = [[k, str(v)] for k, v in artifact.items() if k != "counters"]
    rows += [[f"counters.{k}", str(v)] for k, v in sorted(delta.items())]
    emit("bench_model_fastpath",
         "Model-evaluation fast path: memoised vs per-cell rebuild\n"
         + format_table(["metric", "value"], rows))
