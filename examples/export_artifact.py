#!/usr/bin/env python3
"""Export measurement data in the paper's artifact format.

The original study publishes its raw data as plain-text tables (one
file per kernel and machine, 54 columns per row — Zenodo
10.5281/zenodo.7821491).  This example runs the reproduction's sweep on
the tiny corpus and two machines and writes files in exactly that
layout, then audits one figure the way the paper's appendix describes:
Figure 1's speedups recomputed from the raw columns.

Run:  python examples/export_artifact.py [output_dir]
"""

import sys
from pathlib import Path

from repro.generators import build_corpus
from repro.harness import (
    SweepEngine,
    export_all_artifacts,
    read_artifact_file,
)
from repro.harness.artifact import speedups_from_artifact
from repro.harness.experiments import REORDERINGS
from repro.machine import get_architecture


def main(out_dir: str) -> None:
    corpus = build_corpus("tiny", seed=0)
    archs = [get_architecture(n) for n in ("Milan B", "Ice Lake")]
    print(f"sweeping {len(corpus)} matrices on "
          f"{', '.join(a.name for a in archs)} ...")
    sweep = SweepEngine(corpus, archs, list(REORDERINGS)).run()
    paths = export_all_artifacts(sweep, corpus, archs, out_dir)
    for p in paths:
        print(f"wrote {p}")

    # audit: recompute GP speedups from the raw file, appendix-style
    rows = read_artifact_file(paths[0])
    gp = speedups_from_artifact(rows, "GP")
    print(f"\naudit of {Path(paths[0]).name}: GP 1D speedups "
          f"min={gp.min():.2f} median={sorted(gp)[len(gp)//2]:.2f} "
          f"max={gp.max():.2f} over {len(gp)} matrices")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "artifact_export")
