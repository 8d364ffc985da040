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
:class:`repro.advisor.model.Advice`; ``advise_many`` fans feature
extraction for a batch of two or more matrices out over a reusable
thread pool owned by the instance (NumPy releases the GIL in the hot
reductions).
The serving daemon (:mod:`repro.serve`) shares one warm ``Advisor``
across every client and sizes the pool via the ``workers`` knob;
``close()`` releases the pool when the advisor retires.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

from ..errors import AdvisorError
from ..machine.arch import Architecture
from ..matrix.csr import CSRMatrix
from ..obs.metrics import REGISTRY
from ..obs.trace import span, trace_context
from ..spmv.registry import DEFAULT_WORKLOAD
from .cache import LRUCache
from .featurize import assemble, matrix_features
from .model import AdvisorModel

#: per-request serving metrics (process-global, shared across Advisor
#: instances — a serving process runs one advisor).
_REQUESTS = REGISTRY.counter("advisor.requests")
_LATENCY = REGISTRY.histogram("advisor.request_seconds")
#: ``advise_many`` batch sizes — evidence that the serving layer's
#: micro-batches actually reach the batched fast path.
_BATCH_SIZES = REGISTRY.histogram(
    "advisor.batch_size", bounds=(1, 2, 4, 8, 16, 32, 64, 128, 256))


class Advisor:
    """Feature-driven reordering selection with request caching."""

    def __init__(self, model: AdvisorModel, iterations: float | None = None,
                 cache_size: int = 256,
                 workers: int | None = None) -> None:
        if not model.is_trained:
            raise AdvisorError("Advisor needs a trained model")
        self.model = model
        #: default SpMV iteration budget for the break-even gate
        #: (None disables cost gating unless a request overrides it)
        self.iterations = iterations
        #: thread count of the reusable ``advise_many`` pool (None lets
        #: :class:`ThreadPoolExecutor` pick its default)
        self.workers = workers
        self._features = LRUCache(cache_size)
        self._advice = LRUCache(cache_size)
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()

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
        t0 = time.perf_counter()
        budget = self.iterations if iterations is None else iterations
        mkey = self._matrix_key(a, matrix_name)
        akey = f"{mkey}__{arch.name}__{kernel}__{budget}__{workload}"
        with span("advisor.request", matrix=matrix_name or mkey,
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
        _LATENCY.observe(time.perf_counter() - t0)
        return cached[:top] if top is not None else list(cached)

    def advise_many(self, matrices: list, arch: Architecture,
                    kernel: str = "1d", names: list | None = None,
                    iterations: float | None = None,
                    trace_ctxs: list | None = None,
                    workload: str = DEFAULT_WORKLOAD) -> list:
        """Batch interface: one ranked list per input matrix.

        ``matrices`` holds :class:`CSRMatrix` instances (or corpus
        entries exposing ``.matrix``/``.name``); ``names`` optionally
        labels bare matrices for cache keying.  Feature extraction for
        distinct matrices runs in parallel on the instance's reusable
        pool (sized by the ``workers`` constructor knob).  A single
        matrix is advised on the caller's thread: a pool buys no
        parallelism for one item, only a thread hop.

        ``trace_ctxs`` optionally aligns a ``(trace_id, parent_id)``
        tuple (or ``None``) with each matrix; the serving daemon passes
        each request's ids so the ``advisor.request`` span parents to
        that request's span rather than floating free, on whichever
        thread advises it.
        """
        mats = []
        labels = []
        for i, m in enumerate(matrices):
            if hasattr(m, "matrix"):
                mats.append(m.matrix)
                labels.append(m.name)
            else:
                mats.append(m)
                labels.append(names[i] if names else "")
        if not mats:
            return []
        _BATCH_SIZES.observe(len(mats))

        def one(im: int):
            ctx = trace_ctxs[im] if trace_ctxs else None
            if ctx is not None:
                with trace_context(*ctx):
                    return self.advise(mats[im], arch, kernel,
                                       matrix_name=labels[im],
                                       iterations=iterations,
                                       workload=workload)
            return self.advise(mats[im], arch, kernel,
                               matrix_name=labels[im],
                               iterations=iterations,
                               workload=workload)

        if len(mats) == 1:
            return [one(0)]
        return list(self._executor().map(one, range(len(mats))))

    # ------------------------------------------------------------------
    def _executor(self) -> ThreadPoolExecutor:
        """The lazily created, reusable ``advise_many`` pool."""
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="advisor")
            return self._pool

    def close(self) -> None:
        """Shut down the reusable thread pool (idempotent); the next
        ``advise_many`` call would lazily recreate it."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "Advisor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

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
