"""Experiment harness: everything needed to regenerate the paper's
tables and figures from the synthetic corpus and the machine model.

* :mod:`.runner` — the persistent ordering cache (permutations are
  expensive; model evaluations are cheap) and the :class:`SweepResult`
  of a (matrix × ordering × architecture × kernel) sweep.
* :mod:`.engine` — :class:`~repro.harness.engine.SweepEngine`, the
  parallel, journaled, fault-tolerant sweep executor behind every
  sweep, library and ``python -m repro sweep`` alike.
* :mod:`.experiments` — one entry point per table/figure of the paper.
* :mod:`.report` — plain-text rendering of the results.
"""

from .runner import OrderingCache, SweepResult
from .engine import (
    FailedCell,
    SweepEngine,
    SweepJournal,
    SweepMetrics,
)
from .artifact import (
    export_all_artifacts,
    read_artifact_file,
    write_artifact_file,
)
from .experiments import (
    dense_reference_experiment,
    experiment_classes,
    experiment_cholesky_fill,
    experiment_feature_profiles,
    experiment_fig1_showcase,
    experiment_overhead,
    experiment_speedups,
    two_d_vs_one_d,
)
from .report import (
    render_boxplot_figure,
    render_geomean_table,
    render_overhead_table,
    render_profile_figure,
)

__all__ = [
    "OrderingCache",
    "SweepResult",
    "FailedCell",
    "SweepEngine",
    "SweepJournal",
    "SweepMetrics",
    "export_all_artifacts",
    "read_artifact_file",
    "write_artifact_file",
    "experiment_speedups",
    "experiment_fig1_showcase",
    "experiment_classes",
    "experiment_feature_profiles",
    "experiment_cholesky_fill",
    "experiment_overhead",
    "dense_reference_experiment",
    "two_d_vs_one_d",
    "render_geomean_table",
    "render_boxplot_figure",
    "render_overhead_table",
    "render_profile_figure",
]
