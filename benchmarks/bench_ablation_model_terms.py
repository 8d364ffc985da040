"""Ablation: the two explanatory terms of the performance model.

DESIGN.md §5.1–5.2: disabling the *locality* term (x-reuse window
model) should collapse the GP/RCM advantage; disabling the *imbalance*
term (max-over-threads) should collapse the 1D-vs-2D difference.  This
is the model-side counterpart of the paper's claim that locality and
load balance jointly explain reordering behaviour (§4.4).
"""

import time

import numpy as np

from repro.analysis import geomean
from repro.harness import SweepEngine
from repro.machine import PerfModel, get_architecture
from repro.obs.perf import metric
from repro.util import format_table


def _sweep_geomeans(corpus, cache, model_factory):
    arch = get_architecture("Milan B")
    sweep = SweepEngine(corpus, [arch], ["RCM", "GP", "Gray"],
                        cache=cache, model_factory=model_factory).run()
    assert not sweep.failed, sweep.failed[0]
    out = {}
    for kernel in ("1d", "2d"):
        for o in ("RCM", "GP", "Gray"):
            out[(kernel, o)] = geomean(
                sweep.speedups(o, kernel, "Milan B"))
    return out


def test_ablation_model_terms(benchmark, corpus, ordering_cache, emit,
                              record_bench):
    def run():
        full = _sweep_geomeans(corpus, ordering_cache, PerfModel)
        no_loc = _sweep_geomeans(
            corpus, ordering_cache,
            lambda a: PerfModel(a, locality_term=False))
        no_imb = _sweep_geomeans(
            corpus, ordering_cache,
            lambda a: PerfModel(a, imbalance_term=False))
        return full, no_loc, no_imb

    t0 = time.perf_counter()
    full, no_loc, no_imb = benchmark.pedantic(run, rounds=1, iterations=1)
    wall = time.perf_counter() - t0
    record_bench("ablation_model_terms", {
        "wall_seconds": metric(wall, unit="s"),
        "gp_1d_full": metric(float(full[("1d", "GP")]),
                             polarity="higher"),
        "gp_1d_no_locality": metric(float(no_loc[("1d", "GP")]),
                                    polarity="higher"),
    })

    rows = []
    for (kernel, o) in sorted(full):
        rows.append([f"{o}/{kernel}", full[(kernel, o)],
                     no_loc[(kernel, o)], no_imb[(kernel, o)]])
    emit("ablation_model_terms", "Model-term ablation (geomean speedups, "
         "Milan B)\n" + format_table(
             ["ordering/kernel", "full model", "no locality",
              "no imbalance"], rows))

    # locality off: GP's 1D advantage collapses towards 1
    assert abs(np.log(no_loc[("1d", "GP")])) < abs(
        np.log(full[("1d", "GP")]))
    # imbalance off: 1D and 2D speedups of GP converge
    gap_full = abs(np.log(full[("1d", "GP")] / full[("2d", "GP")]))
    gap_no_imb = abs(np.log(no_imb[("1d", "GP")] / no_imb[("2d", "GP")]))
    assert gap_no_imb <= gap_full + 0.02
