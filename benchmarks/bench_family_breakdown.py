"""Per-family breakdown of reordering benefit (extends §4.4).

The class analysis explains *why* individual matrices respond to
reordering; this bench aggregates the same story per structural family
of the corpus: meshes and circuits benefit, already-ordered matrices do
not, and the no-structure random family cannot be helped by anyone.
"""

from repro.analysis import geomean
from repro.util import format_table


def test_family_breakdown(benchmark, corpus, full_sweep, emit):
    def run():
        groups = sorted({e.group for e in corpus})
        table = {}
        for group in groups:
            names = {e.name for e in corpus if e.group == group}
            for ordering in ("RCM", "GP", "Gray"):
                vals = []
                for rec in full_sweep.records:
                    if (rec.matrix in names and rec.kernel == "1d"
                            and rec.architecture == "Milan B"
                            and rec.ordering == ordering):
                        base = full_sweep.lookup(rec.matrix, "original",
                                                 "1d", "Milan B")
                        vals.append(rec.gflops_max / base.gflops_max)
                table[(group, ordering)] = geomean(vals)
        return groups, table

    groups, table = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [[g] + [table[(g, o)] for o in ("RCM", "GP", "Gray")]
            for g in groups]
    emit("family_breakdown",
         "Per-family geomean 1D speedups (Milan B)\n"
         + format_table(["family", "RCM", "GP", "Gray"], rows))

    # the no-structure random family must not show real GP gains
    if "Random" in groups:
        assert table[("Random", "GP")] < 1.35
    # mesh-dominated families benefit from GP more than random ones
    mesh_groups = [g for g in groups if g in ("PDE", "FEM")]
    if mesh_groups and "Random" in groups:
        best_mesh = max(table[(g, "GP")] for g in mesh_groups)
        assert best_mesh >= table[("Random", "GP")]
    # Gray helps no family on average (its median case is a slowdown)
    assert all(table[(g, "Gray")] < 1.25 for g in groups)
