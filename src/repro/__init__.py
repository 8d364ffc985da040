"""repro — reproduction of "Bringing Order to Sparsity: A Sparse Matrix
Reordering Study on Multicore CPUs" (SC '23).

Top-level convenience re-exports; see the subpackages for the full API:

* :mod:`repro.matrix` — CSR/COO containers, Matrix Market I/O
* :mod:`repro.graph` — graph & hypergraph views of sparse matrices
* :mod:`repro.generators` — the synthetic evaluation corpus
* :mod:`repro.partition` / :mod:`repro.hpartition` — multilevel
  (hyper)graph partitioners
* :mod:`repro.reorder` — the six orderings (RCM, AMD, ND, GP, HP, Gray)
* :mod:`repro.spmv` — the 1D and 2D CSR SpMV kernels
* :mod:`repro.machine` — Table 2 architectures + performance model
* :mod:`repro.features` — order-sensitive matrix features
* :mod:`repro.cholesky` — symbolic fill analysis
* :mod:`repro.analysis` — geomeans, boxplots, performance profiles
* :mod:`repro.harness` — experiment drivers for every table and figure
* :mod:`repro.advisor` — feature-driven reordering selection service
"""

__version__ = "1.0.0"

from .matrix import CSRMatrix, COOMatrix, read_matrix_market
from .reorder import ALL_ORDERINGS, compute_ordering
from .machine import TABLE2, PerfModel, get_architecture
from .spmv import spmv, schedule_1d, schedule_2d
from .generators import build_corpus, named_matrix
from .advisor import Advisor, AdvisorModel

__all__ = [
    "__version__",
    "CSRMatrix",
    "COOMatrix",
    "read_matrix_market",
    "ALL_ORDERINGS",
    "compute_ordering",
    "TABLE2",
    "PerfModel",
    "get_architecture",
    "spmv",
    "schedule_1d",
    "schedule_2d",
    "build_corpus",
    "named_matrix",
    "Advisor",
    "AdvisorModel",
]
