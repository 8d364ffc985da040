"""Ablation: GP part count (DESIGN.md §5.3).

The paper matches the part count to the core count (§3.3).  This sweep
varies it from far-too-coarse to far-too-fine on a fixed machine and
shows that matching the core count is near-optimal: too few parts lose
per-thread block locality, far too many shred the blocks across thread
boundaries.
"""

import time

from repro.analysis import geomean
from repro.machine import PerfModel, get_architecture, simulate_measurement
from repro.obs.perf import metric
from repro.reorder import gp_ordering
from repro.util import format_table

PART_COUNTS = (4, 16, 64, 128, 256)


def test_ablation_gp_part_count(benchmark, corpus, emit, record_bench):
    arch = get_architecture("Milan B")  # 128 cores
    model = PerfModel(arch)
    subset = [e for e in corpus if e.nrows >= 512][:8]

    def run():
        out = {}
        for k in PART_COUNTS:
            speedups = []
            for e in subset:
                base = simulate_measurement(e.matrix, arch, "1d",
                                            e.name, "original",
                                            model=model)
                r = gp_ordering(e.matrix, nparts=k, seed=0)
                rec = simulate_measurement(r.apply(e.matrix), arch, "1d",
                                           e.name, "GP", model=model)
                speedups.append(rec.gflops_max / base.gflops_max)
            out[k] = geomean(speedups)
        return out

    t0 = time.perf_counter()
    out = benchmark.pedantic(run, rounds=1, iterations=1)
    wall = time.perf_counter() - t0
    emit("ablation_gp_parts",
         "GP part-count sweep (geomean 1D speedup, Milan B = 128 cores)\n"
         + format_table(["parts", "geomean speedup"],
                        [[k, v] for k, v in out.items()]))
    record_bench("ablation_gp_parts", {
        "wall_seconds": metric(wall, unit="s"),
        "geomean_speedup_parts128": metric(float(out[128]),
                                           polarity="higher"),
        "geomean_speedup_parts4": metric(float(out[4]),
                                         polarity="higher"),
    })
    # the core-matched count must beat the extreme undershoot
    assert out[128] > out[4]
