"""Process-wide metrics registry: Counter, Gauge, Histogram.

The paper's contribution is *measurement*, and before this module the
pipeline's own measurements were scattered: module-level ``COUNTERS``
dicts in :mod:`repro.machine.reuse` and :mod:`repro.spmv.schedule`,
three cache-stats shapes, and a hand-rolled metrics dataclass in the
sweep engine.  Everything now funnels through one
:class:`MetricsRegistry`:

* **Counter** — a monotonically increasing integer (cache hits,
  statistics builds, requests served).
* **Gauge** — a last-write-wins scalar (bytes resident, pool size).
* **Histogram** — observation counts over *fixed log-spaced buckets*
  (request latencies, span durations).  Fixed bucket bounds make
  histograms from different processes mergeable by element-wise
  addition, which is exactly what the sweep engine does with the
  registries its workers ship back.

The registry serialises to a plain-dict :meth:`~MetricsRegistry.
snapshot`; :meth:`~MetricsRegistry.delta_since` subtracts an earlier
snapshot and :meth:`~MetricsRegistry.merge_delta` adds a delta into
another registry.  ``merge_delta(delta_since(...))`` is the worker →
engine shipping protocol: workers report only what *they* did, so
counters are never lost or double-counted no matter how tasks are
retried or resumed (a worker that dies mid-chunk simply never ships —
its cells are recomputed and counted exactly once by whoever finishes
them).

Only the standard library is used; the module imports nothing from the
rest of :mod:`repro` so every subsystem can depend on it.
"""

from __future__ import annotations

import bisect
import math
import operator
import threading

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "REGISTRY",
    "get_registry", "log_buckets", "snapshot_quantile",
]


def log_buckets(lo: float = 1e-6, hi: float = 1e3,
                per_decade: int = 3) -> tuple:
    """Fixed log-spaced histogram bucket upper bounds.

    ``per_decade`` bounds per factor of ten, from ``lo`` up to and
    including ``hi`` (seconds by convention: 1 µs .. ~17 min by
    default).  The bounds are generated deterministically so two
    processes that never exchanged configuration still produce
    mergeable histograms.
    """
    if not (lo > 0 and hi > lo and per_decade >= 1):
        raise ValueError(
            f"invalid bucket spec lo={lo} hi={hi} per_decade={per_decade}")
    n = int(round(math.log10(hi / lo) * per_decade))
    bounds = [lo * 10.0 ** (i / per_decade) for i in range(n + 1)]
    return tuple(round(b, 12) for b in bounds)


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "_value", "_lock")
    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"{self.name}: counters only go up, got {n}")
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        return self._value

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self._value}


class Gauge:
    """A last-write-wins scalar metric."""

    __slots__ = ("name", "_value", "_lock")
    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self._value}


class Histogram:
    """Observation counts over fixed log-spaced buckets.

    ``counts[i]`` is the number of observations ``<= bounds[i]`` (and
    greater than the previous bound); the final slot counts overflows.
    Because the bounds are fixed at construction, histograms with equal
    bounds merge by element-wise addition of their counts.
    """

    __slots__ = ("name", "bounds", "_counts", "_sum", "_count", "_max",
                 "_lock")
    kind = "histogram"

    def __init__(self, name: str, bounds=None) -> None:
        self.name = name
        self.bounds = tuple(bounds) if bounds is not None else log_buckets()
        if list(self.bounds) != sorted(self.bounds) or not self.bounds:
            raise ValueError(f"{name}: bucket bounds must be sorted")
        self._counts = [0] * (len(self.bounds) + 1)
        self._sum = 0.0
        self._count = 0
        self._max = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        i = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[i] += 1
            self._sum += value
            self._count += 1
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (upper bound of the
        bucket holding the q-th observation)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            total = self._count
            if total == 0:
                return 0.0
            rank = q * total
            seen = 0
            for i, c in enumerate(self._counts):
                seen += c
                if seen >= rank and c:
                    return (self.bounds[i] if i < len(self.bounds)
                            else self._max)
        return self._max

    def snapshot(self) -> dict:
        with self._lock:
            return {"type": "histogram", "count": self._count,
                    "sum": self._sum, "max": self._max,
                    "bounds": list(self.bounds),
                    "counts": list(self._counts)}


def snapshot_quantile(entry: dict, q: float) -> float:
    """Quantile estimate from a histogram *snapshot* (or delta) dict.

    Mirrors :meth:`Histogram.quantile` — the upper bound of the bucket
    holding the q-th observation, the recorded ``max`` for the
    overflow slot — but works on the serialised shape, so the serving
    daemon can report SLOs from a ``delta_since`` of the process
    registry (i.e. *this daemon instance's* latencies, not whatever
    an embedding test process observed before it started).
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if entry.get("type") != "histogram":
        raise ValueError(f"not a histogram snapshot: {entry!r}")
    bounds = entry.get("bounds", [])
    counts = entry.get("counts", [])
    total = entry.get("count", 0)
    if total <= 0:
        return 0.0
    rank = q * total
    seen = 0
    hi = entry.get("max", 0.0)
    for i, c in enumerate(counts):
        seen += c
        if seen >= rank and c:
            if i >= len(bounds):
                return hi
            # bucket bounds can overshoot the largest observation;
            # an SLO report must never claim p95 > max
            return min(bounds[i], hi) if hi > 0 else bounds[i]
    return hi


class MetricsRegistry:
    """A named collection of metrics with a snapshot/delta/merge API."""

    def __init__(self) -> None:
        self._metrics: dict = {}
        self._lock = threading.Lock()

    # -- construction --------------------------------------------------
    def _get(self, name: str, cls, *args):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, *args)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, not {cls.__name__}")
            return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str, bounds=None) -> Histogram:
        hist = self._get(name, Histogram, bounds)
        if bounds is not None and tuple(bounds) != hist.bounds:
            raise ValueError(
                f"histogram {name!r} already registered with different "
                "bucket bounds")
        return hist

    # -- introspection -------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> list:
        with self._lock:
            return sorted(self._metrics)

    def values(self) -> dict:
        """Flat ``{name: value}`` of every counter and gauge (histogram
        entries report their observation count)."""
        with self._lock:
            metrics = list(self._metrics.items())
        out = {}
        for name, m in metrics:
            out[name] = m.count if isinstance(m, Histogram) else m.value
        return out

    # -- snapshot / delta / merge --------------------------------------
    def snapshot(self) -> dict:
        """JSON-serialisable state of every metric."""
        with self._lock:
            metrics = list(self._metrics.items())
        return {name: m.snapshot() for name, m in metrics}

    def delta_since(self, before: dict) -> dict:
        """What happened between ``before`` (an earlier
        :meth:`snapshot`) and now, as a snapshot-shaped dict.

        Counters and histograms subtract; gauges report their current
        value (a gauge is a level, not a flow).  Metrics absent from
        ``before`` report their full current state.  A counter or
        histogram that did not move is left out without being
        snapshotted, so a delta costs what changed, not what exists.
        """
        with self._lock:
            metrics = list(self._metrics.items())
        delta = {}
        for name, metric in metrics:
            old = before.get(name)
            kind = metric.kind
            if old is None or old.get("type") != kind:
                cur = metric.snapshot()
                if cur.get("value") or cur.get("count") \
                        or kind == "gauge":
                    delta[name] = cur
            elif kind == "counter":
                value = metric.value - old["value"]
                if value:
                    delta[name] = {"type": "counter", "value": value}
            elif kind == "histogram":
                if metric.count == old.get("count", 0):
                    continue
                cur = metric.snapshot()
                counts = cur["counts"]
                if len(old.get("counts", ())) == len(counts):
                    counts = list(map(operator.sub, counts,
                                      old["counts"]))
                delta[name] = {"type": "histogram",
                               "count": cur["count"] - old.get("count", 0),
                               "sum": cur["sum"] - old.get("sum", 0.0),
                               "max": cur["max"], "bounds": cur["bounds"],
                               "counts": counts}
            else:  # gauge
                delta[name] = metric.snapshot()
        return delta

    def merge_delta(self, delta: dict) -> None:
        """Add a :meth:`delta_since` result into this registry.

        This is the worker → engine shipping protocol: each worker
        reports only the work it did, so merging N worker deltas yields
        exact totals with no loss and no double counting.
        """
        for name, entry in delta.items():
            kind = entry.get("type")
            if kind == "counter":
                self.counter(name).inc(int(entry.get("value", 0)))
            elif kind == "gauge":
                self.gauge(name).set(entry.get("value", 0.0))
            elif kind == "histogram":
                hist = self.histogram(name, entry.get("bounds"))
                counts = entry.get("counts", ())
                with hist._lock:
                    if len(counts) == len(hist._counts):
                        hist._counts = list(map(operator.add,
                                                hist._counts, counts))
                    else:
                        for i, c in enumerate(counts[:len(hist._counts)]):
                            hist._counts[i] += int(c)
                    hist._sum += entry.get("sum", 0.0)
                    hist._count += int(entry.get("count", 0))
                    hist._max = max(hist._max, entry.get("max", 0.0))


#: the process-global default registry; workers snapshot/delta it and
#: the sweep engine merges their deltas into a run-local registry.
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return REGISTRY
