"""Training recipes: corpus → sweep → dataset → model.

The one-call entry point for the CLI and for tests.  Training cost is
dominated by the reordering pass of the sweep; pass a disk-backed
:class:`repro.harness.runner.OrderingCache` to pay it once across runs.
"""

from __future__ import annotations

from ..generators.suite import build_corpus
from ..harness.runner import OrderingCache, SweepResult
from ..machine.arch import get_architecture
from ..spmv.registry import KERNELS
from .dataset import build_dataset
from .model import AdvisorModel

#: default training machine when the caller does not name one
DEFAULT_ARCHITECTURES = ("Milan B",)


def train_model(corpus=None, tier: str = "tiny", architectures=None,
                orderings=None, kernels: tuple = KERNELS,
                cache: OrderingCache | None = None,
                sweep: SweepResult | None = None, seed=0, k: int = 5,
                limit: int | None = None) -> AdvisorModel:
    """Train an :class:`AdvisorModel` from a (generated) corpus.

    Parameters
    ----------
    corpus:
        Training matrices; generated from ``tier`` when ``None``.
    architectures:
        :class:`Architecture` objects or Table 2 names (default:
        Milan B, the paper's headline machine).
    limit:
        Optional cap on the number of training matrices — useful for
        smoke tests where a full corpus sweep is too slow.
    """
    if corpus is None:
        corpus = build_corpus(tier, seed=seed)
    if limit is not None:
        corpus = corpus[:limit]
    if architectures is None:
        architectures = DEFAULT_ARCHITECTURES
    archs = [get_architecture(a) if isinstance(a, str) else a
             for a in architectures]
    rows = build_dataset(corpus, archs, orderings=orderings,
                         kernels=kernels, cache=cache, sweep=sweep,
                         seed=seed)
    return AdvisorModel(k=k).fit(rows)
