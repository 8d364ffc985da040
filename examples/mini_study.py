#!/usr/bin/env python3
"""A miniature end-to-end rerun of the paper's main experiment.

Builds the tiny corpus, sweeps all six orderings over two machines and
both SpMV kernels, and prints the Figure 2 boxplots and Table 3/4
geometric means — the same outputs the full benchmark harness produces
from the 'small' corpus, in under a minute.

Run:  python examples/mini_study.py
"""

from repro.generators import build_corpus
from repro.harness import (
    SweepEngine,
    experiment_speedups,
    render_boxplot_figure,
    render_geomean_table,
    two_d_vs_one_d,
)
from repro.harness.experiments import REORDERINGS
from repro.harness.report import render_two_d_vs_one_d
from repro.machine import get_architecture

ARCHS = ("Rome", "Milan B")


def main() -> None:
    corpus = build_corpus("tiny", seed=0)
    print(f"corpus: {len(corpus)} matrices, "
          f"{sum(e.nnz for e in corpus):,} total nonzeros")
    archs = [get_architecture(n) for n in ARCHS]
    sweep = SweepEngine(corpus, archs, list(REORDERINGS)).run()

    for kernel, table_no, fig_no in (("1d", 3, 2), ("2d", 4, 3)):
        study = experiment_speedups(sweep, list(ARCHS), kernel)
        print()
        print(render_geomean_table(
            study, list(ARCHS),
            f"Table {table_no}: geometric-mean speedup ({kernel.upper()} "
            "kernel)"))
        print()
        print(render_boxplot_figure(
            study, list(ARCHS),
            f"Figure {fig_no}: speedup distribution ({kernel.upper()})"))

    print()
    for arch in ARCHS:
        print(render_two_d_vs_one_d(two_d_vs_one_d(sweep, arch), arch))


if __name__ == "__main__":
    main()
