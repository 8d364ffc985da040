"""Ablation: NUMA placement (paper §3.1's first-touch policy).

The paper uses first-touch placement "to ensure that the data is placed
close to the core using it".  This bench quantifies the modelled cost
of getting placement wrong (interleaved) versus first-touch versus an
idealised local-only placement, and shows that block-local orderings
(GP) are less NUMA-sensitive than the original order — locality helps
twice.
"""

import time

from repro.analysis import geomean
from repro.machine import NumaModel, get_architecture
from repro.obs.perf import metric
from repro.spmv import schedule_1d
from repro.util import format_table

PLACEMENTS = ("local_only", "first_touch", "interleaved")


def test_ablation_numa_placement(benchmark, corpus, ordering_cache, emit,
                                 record_bench):
    arch = get_architecture("Milan B")  # 2 sockets
    subset = [e for e in corpus if e.nrows >= 256][:10]

    def run():
        out = {}
        for placement in PLACEMENTS:
            model = NumaModel(arch, placement=placement)
            slowdowns = []
            gp_slowdowns = []
            base_model = NumaModel(arch, placement="local_only")
            for e in subset:
                s = schedule_1d(e.matrix, arch.threads)
                t = model.predict(e.matrix, s).seconds
                t0 = base_model.predict(e.matrix, s).seconds
                slowdowns.append(t / t0)
                r = ordering_cache.get(e.matrix, e.name, "GP",
                                       nparts=arch.gp_parts)
                b = r.apply(e.matrix)
                sb = schedule_1d(b, arch.threads)
                tb = model.predict(b, sb).seconds
                tb0 = base_model.predict(b, sb).seconds
                gp_slowdowns.append(tb / tb0)
            out[placement] = (geomean(slowdowns), geomean(gp_slowdowns))
        return out

    t0 = time.perf_counter()
    out = benchmark.pedantic(run, rounds=1, iterations=1)
    wall = time.perf_counter() - t0
    record_bench("ablation_numa", {
        "wall_seconds": metric(wall, unit="s"),
        "first_touch_slowdown_orig": metric(float(out["first_touch"][0])),
        "first_touch_slowdown_gp": metric(float(out["first_touch"][1])),
    })
    rows = [[p, v[0], v[1]] for p, v in out.items()]
    emit("ablation_numa",
         "NUMA placement ablation (slowdown vs local-only, Milan B)\n"
         + format_table(
             ["placement", "original order", "GP order"], rows))
    # orderings don't change local-only; first-touch <= interleaved
    assert out["local_only"] == (1.0, 1.0)
    assert out["first_touch"][0] <= out["interleaved"][0] + 1e-9
    # GP's block locality reduces the NUMA surcharge
    assert out["first_touch"][1] <= out["first_touch"][0] + 1e-9
