"""The serving API: "which ordering should I use for THIS matrix?".

:class:`Advisor` wraps a trained :class:`repro.advisor.model.AdvisorModel`
behind two LRU caches so repeated questions cost a dict lookup:

* a **feature cache** keyed by ``(matrix identity, thread count)`` —
  feature extraction scans the whole matrix and is the expensive part
  of a request;
* an **advice cache** keyed like
  :class:`repro.harness.runner.OrderingCache` keys permutations
  (name, shape, nnz) plus architecture, kernel and iteration budget.

``advise`` answers one request with a ranked list of
:class:`repro.advisor.model.Advice`.  The serving daemon
(:mod:`repro.serve`) shares one warm ``Advisor`` across every client
and advises each request of a micro-batch in turn on one thread; the
caches are lock-guarded, so concurrent callers are safe too.
"""

from __future__ import annotations

from ..errors import AdvisorError
from ..machine.arch import Architecture
from ..matrix.csr import CSRMatrix
from ..obs.metrics import REGISTRY
from ..obs.trace import stage
from ..spmv.registry import DEFAULT_WORKLOAD
from .cache import LRUCache
from .featurize import assemble, matrix_features
from .model import AdvisorModel

#: per-request serving metrics (process-global, shared across Advisor
#: instances — a serving process runs one advisor); the latency
#: histogram is the one the ``advisor.request`` stage observes into.
_REQUESTS = REGISTRY.counter("advisor.requests")
_LATENCY = REGISTRY.histogram("advisor.request_seconds")


class Advisor:
    """Feature-driven reordering selection with request caching."""

    def __init__(self, model: AdvisorModel, iterations: float | None = None,
                 cache_size: int = 256) -> None:
        if not model.is_trained:
            raise AdvisorError("Advisor needs a trained model")
        self.model = model
        #: default SpMV iteration budget for the break-even gate
        #: (None disables cost gating unless a request overrides it)
        self.iterations = iterations
        self._features = LRUCache(cache_size)
        self._advice = LRUCache(cache_size)

    # ------------------------------------------------------------------
    @staticmethod
    def _matrix_key(a: CSRMatrix, matrix_name: str) -> str:
        # mirrors OrderingCache._key: name alone is not trusted, shape
        # and nnz guard against same-named matrices at different scales
        return f"{matrix_name}__{a.nrows}x{a.ncols}_{a.nnz}"

    def advise(self, a: CSRMatrix, arch: Architecture, kernel: str = "1d",
               matrix_name: str = "", iterations: float | None = None,
               top: int | None = None,
               workload: str = DEFAULT_WORKLOAD) -> list:
        """Ranked orderings (best first) for one matrix on one machine.

        Returns a list of :class:`Advice`; ``top`` truncates it.
        ``iterations`` overrides the advisor-level break-even budget
        for this request.  ``workload`` selects what runs per scheduled
        iteration (:data:`repro.spmv.registry.WORKLOADS`); the default
        keeps the historical plain-SpMV behaviour and cache keys.
        """
        budget = self.iterations if iterations is None else iterations
        mkey = self._matrix_key(a, matrix_name)
        akey = f"{mkey}__{arch.name}__{kernel}__{budget}__{workload}"
        with stage("advisor.request", matrix=matrix_name or mkey,
                   arch=arch.name, kernel=kernel, workload=workload):
            cached = self._advice.get(akey)
            if cached is None:
                mf = self._features.get_or_compute(
                    f"{mkey}__t{arch.threads}",
                    lambda: matrix_features(a, arch.threads))
                cached = self.model.predict_ranked(
                    assemble(mf, arch, kernel, workload), nnz=a.nnz,
                    iterations=budget)
                self._advice.put(akey, cached)
        _REQUESTS.inc()
        return cached[:top] if top is not None else list(cached)

    def close(self) -> None:
        """No-op: the advisor holds no threads or handles to release;
        callers that manage an advisor's lifetime may still call it."""

    # ------------------------------------------------------------------
    @property
    def stats(self) -> dict:
        """Hit/miss counters of both serving caches, plus the
        process-wide request count and latency histogram summary."""
        return {"features": self._features.stats,
                "advice": self._advice.stats,
                "requests": _REQUESTS.value,
                "latency": {"count": _LATENCY.count,
                            "mean_s": _LATENCY.mean(),
                            "p50_s": _LATENCY.quantile(0.5),
                            "p99_s": _LATENCY.quantile(0.99)}}
