"""The workload-model gate: CG/Jacobi/SpGEMM/SpMM scores as exact metrics.

The machine model's workload axis (:mod:`repro.machine.workloads`) is
closed-form on top of the SpMV prediction, so every number here is
deterministic and machine-independent.  The recorded ledger entry
carries them as *exact* metrics: the CI ``workloads-smoke`` job replays
this bench and gates with ``repro perf compare --kinds exact`` against
the committed ``benchmarks/baselines/BENCH_workloads.json`` — any
drift in the scoring formulas (or in the SpMV model underneath them)
trips the gate with a named metric instead of a silent score change.

Shape targets double as sanity assertions: solver loops cost more than
one SpMV, SpMM amortises the matrix stream below k independent SpMVs,
and SpGEMM's row-gather intensity never discounts below one SpMV.
"""

from __future__ import annotations

import time

from repro.machine import PerfModel, get_architecture, predict_workload
from repro.machine.workloads import ITERATIONS, SPMM_VECTORS
from repro.obs.perf import metric
from repro.spmv.schedule import get_schedule
from repro.util import format_table

WORKLOADS = ("spmv", "cg", "jacobi", "spgemm", "spmm")
ARCHS = ("Rome", "Milan B")


def _geomean(values):
    import math

    return math.exp(sum(math.log(v) for v in values) / len(values))


def test_workload_model_scores(corpus, emit, emit_json, record_bench):
    archs = [get_architecture(a) for a in ARCHS]
    # spgemm is defined for square operands only; the tiny corpus is
    # all-square today, but filter so a future rectangular entry drops
    # from this bench instead of crashing it
    square = [e for e in corpus if e.matrix.is_square]
    assert square, "corpus has no square matrices"

    totals = {w: 0.0 for w in WORKLOADS}
    flops = {w: 0.0 for w in WORKLOADS}
    ratios = {w: [] for w in WORKLOADS}
    t0 = time.perf_counter()
    for e in square:
        a = e.matrix
        for arch in archs:
            pred = PerfModel(arch).predict(
                a, get_schedule(a, "1d", arch.threads))
            for w in WORKLOADS:
                wp = predict_workload(a, w, arch, pred)
                totals[w] += wp.seconds
                flops[w] += wp.flops
                ratio = wp.seconds / pred.seconds
                ratios[w].append(ratio)
                if w in ("cg", "jacobi"):
                    assert ratio > ITERATIONS[w], (e.name, arch.name, w)
                elif w == "spmm":
                    assert 1.0 <= ratio < SPMM_VECTORS, (e.name, arch.name)
                elif w == "spgemm":
                    assert ratio >= 1.0, (e.name, arch.name)
    wall = time.perf_counter() - t0

    geo = {w: _geomean(ratios[w]) for w in WORKLOADS}
    rows = [[w, f"{totals[w]:.6g}", f"{flops[w]:.6g}", f"{geo[w]:.4f}"]
            for w in WORKLOADS]
    emit("workloads", "workload model scores "
         f"({len(square)} matrices x {len(archs)} architectures)\n"
         + format_table(["workload", "model-s", "flops",
                         "geomean vs spmv"], rows))
    emit_json("workloads", {"totals": totals, "flops": flops,
                            "geomean_vs_spmv": geo})

    record_bench("workloads", {
        "wall_seconds": metric(wall, unit="s"),
        "cells": metric(float(len(square) * len(archs) * len(WORKLOADS)),
                        unit="cells", polarity="higher"),
        **{f"seconds_{w}": metric(totals[w], unit="model-s")
           for w in WORKLOADS},
        **{f"flops_{w}": metric(flops[w], unit="flop", polarity="higher")
           for w in WORKLOADS},
        **{f"geomean_vs_spmv_{w}": metric(geo[w], unit="ratio")
           for w in WORKLOADS if w != "spmv"},
    }, context={"architectures": list(ARCHS),
                "workloads": list(WORKLOADS)})
