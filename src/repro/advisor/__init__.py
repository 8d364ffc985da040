"""Feature-driven reordering selection: ``repro.advisor``.

The paper's central finding is that no single reordering wins
everywhere — the best of {RCM, AMD, ND, GP, HP, Gray} depends on matrix
structure, architecture and kernel (§4.4, Finding 5).  This subsystem
turns that finding into a *service*: instead of running a full
six-ordering sweep, ``Advisor.advise(matrix, arch, kernel)`` answers
from learned features in milliseconds, including "keep the natural
order" when the predicted gain would never amortize the reordering cost
(§4.7 / Table 5).  The selection-is-learnable framing follows Tang et
al. (supervised reordering selection) and Asudeh et al. (reordering is
often not worth its cost); see PAPERS.md.

Layers (each its own module):

* :mod:`.featurize` — matrix × architecture × kernel feature vectors
* :mod:`.dataset`  — replay harness sweeps into labeled training rows
* :mod:`.model`    — pure-NumPy k-NN speedup regressor, JSON artifacts
* :mod:`.costmodel`— Table 5 break-even gating
* :mod:`.service`  — the serving API with LRU feature/advice caches
* :mod:`.train`    — corpus → sweep → dataset → model recipes
* :mod:`.evaluate` — held-out accuracy / geomean-vs-oracle scoring
* :mod:`.cache`    — the thread-safe LRU used by the service
"""

from .cache import LRUCache
from .costmodel import ReorderingCostModel
from .dataset import DatasetRow, build_dataset
from .evaluate import EvaluationReport, evaluate_advisor
from .featurize import FEATURE_NAMES, featurize, matrix_features
from .model import MODEL_VERSION, Advice, AdvisorModel
from .service import Advisor
from .train import train_model

__all__ = [
    "Advice",
    "Advisor",
    "AdvisorModel",
    "DatasetRow",
    "EvaluationReport",
    "FEATURE_NAMES",
    "LRUCache",
    "MODEL_VERSION",
    "ReorderingCostModel",
    "build_dataset",
    "evaluate_advisor",
    "featurize",
    "matrix_features",
    "train_model",
]
