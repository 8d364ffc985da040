"""The hardware substitute: Table 2 architectures + performance model.

The paper measures SpMV on eight physical multicore machines.  Offline
and in pure Python we replace the machines with:

* :mod:`.arch` — the eight architecture descriptions of Table 2
  (cores, cache hierarchy, bandwidth), verbatim;
* :mod:`.cache` — an exact LRU set-associative cache simulator used to
  validate the analytical model on small inputs;
* :mod:`.model` — an analytical per-thread cost model for the SpMV
  kernels: streamed matrix traffic at contended memory bandwidth, an
  x-vector reuse model (distinct cache lines per cache-sized window),
  per-row loop overhead and a row-length-irregularity penalty.  Total
  time is the max over threads (static schedule barrier), which is how
  load imbalance enters;
* :mod:`.bench` — a measurement-shaped runner producing the same
  7-column records as the paper's artifact files.

See DESIGN.md §2 for why this substitution preserves the phenomena the
paper studies (who wins, and why) even though absolute Gflop/s are not
comparable.
"""

from .arch import Architecture, TABLE2, get_architecture, architecture_names
from .cache import LRUCache
from .model import PerfModel, SpmvPrediction
from .numa import NumaModel
from .reuse import ReuseStats
from .bench import MeasurementRecord, simulate_measurement
from .workloads import WorkloadPrediction, predict_workload

__all__ = [
    "Architecture",
    "TABLE2",
    "get_architecture",
    "architecture_names",
    "LRUCache",
    "PerfModel",
    "NumaModel",
    "ReuseStats",
    "SpmvPrediction",
    "MeasurementRecord",
    "WorkloadPrediction",
    "predict_workload",
    "simulate_measurement",
]
