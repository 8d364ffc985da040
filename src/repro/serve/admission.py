"""Admission control: per-client token buckets + queue-depth shedding.

A serving process protects its latency SLO by saying "no" early.  Two
gates run before a request may enter the micro-batching queue:

1. **per-client token bucket** — each client identity refills at
   ``rate`` tokens/second up to a ``burst`` ceiling; a request costs
   one token.  A greedy client exhausts only its own bucket, so one
   misbehaving tenant cannot starve the rest (``reason:
   "rate_limited"``, HTTP 429).
2. **queue-depth shed** — when the batching queue already holds
   ``max_queue_depth`` waiting requests the daemon is saturated and
   queueing further work would only grow tail latency; the request is
   shed instead (``reason: "queue_full"``, HTTP 429).

Both gates answer with a structured reject carrying ``retry_after_ms``
so well-behaved clients can back off precisely.  Shed counts are
first-class SLO metrics (``serve.shed.*`` counters in
:data:`repro.obs.REGISTRY`) — a serving system that silently drops
load is lying about its capacity.

The clock is injectable for deterministic tests.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from ..obs.metrics import REGISTRY

__all__ = ["AdmissionController", "Rejection", "TokenBucket"]

_SHED_RATE = REGISTRY.counter("serve.shed.rate_limited")
_SHED_QUEUE = REGISTRY.counter("serve.shed.queue_full")


@dataclass(frozen=True)
class Rejection:
    """A structured admission refusal (maps onto a 429-style reply)."""

    reason: str            # "rate_limited" | "queue_full" | "draining"
    http_status: int       # 429 for load sheds, 503 while draining
    retry_after_ms: float


class TokenBucket:
    """A classic token bucket: ``rate`` tokens/s, ``burst`` capacity.

    The bucket starts full, so a client's first ``burst`` requests pass
    unconditionally — admission control throttles sustained rates, not
    the first contact.  Thread-safe; the daemon's event loop is single
    threaded but tests and embedders may not be.
    """

    __slots__ = ("rate", "burst", "_tokens", "_last", "_clock", "_lock")

    def __init__(self, rate: float, burst: float,
                 clock=time.monotonic) -> None:
        if rate <= 0 or burst <= 0:
            raise ValueError(
                f"rate and burst must be positive, got {rate}/{burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._clock = clock
        self._last = clock()
        self._lock = threading.Lock()

    def _refill(self, now: float) -> None:
        self._tokens = min(self.burst,
                           self._tokens + (now - self._last) * self.rate)
        self._last = now

    def try_acquire(self, n: float = 1.0) -> bool:
        with self._lock:
            self._refill(self._clock())
            if self._tokens >= n:
                self._tokens -= n
                return True
            return False

    def retry_after_s(self, n: float = 1.0) -> float:
        """Seconds until ``n`` tokens will be available."""
        with self._lock:
            self._refill(self._clock())
            return max(0.0, (n - self._tokens) / self.rate)

    @property
    def tokens(self) -> float:
        with self._lock:
            self._refill(self._clock())
            return self._tokens


class AdmissionController:
    """The daemon's front door: rate gates, then the queue-depth shed.

    ``rate=None`` disables per-client budgets (the queue-depth shed
    still applies); buckets are created lazily per client identity and
    capped at ``max_clients`` — beyond that, the oldest-idle bucket is
    evicted, which at worst refills a returning client's budget early
    (fail-open, never fail-closed).
    """

    def __init__(self, rate: float | None = 50.0, burst: float = 20.0,
                 max_queue_depth: int = 128, max_clients: int = 1024,
                 clock=time.monotonic) -> None:
        if max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be positive, got {max_queue_depth}")
        self.rate = rate
        self.burst = burst
        self.max_queue_depth = int(max_queue_depth)
        self.max_clients = int(max_clients)
        self._clock = clock
        self._buckets: dict = {}
        self._lock = threading.Lock()

    def _bucket(self, client: str) -> TokenBucket:
        with self._lock:
            bucket = self._buckets.get(client)
            if bucket is None:
                if len(self._buckets) >= self.max_clients:
                    self._buckets.pop(next(iter(self._buckets)))
                bucket = TokenBucket(self.rate, self.burst,
                                     clock=self._clock)
                self._buckets[client] = bucket
            else:
                # move-to-end keeps eviction approximately oldest-idle
                self._buckets[client] = self._buckets.pop(client)
            return bucket

    def admit(self, client: str, queue_depth: int) -> Rejection | None:
        """``None`` to admit, or the :class:`Rejection` to send back."""
        if self.rate is not None:
            bucket = self._bucket(client)
            if not bucket.try_acquire():
                _SHED_RATE.inc()
                return Rejection(
                    reason="rate_limited", http_status=429,
                    retry_after_ms=bucket.retry_after_s() * 1e3)
        if queue_depth >= self.max_queue_depth:
            _SHED_QUEUE.inc()
            # the queue drains one batch per flush at the service
            # rate; a fixed 50 ms is a conservative wait before retry
            return Rejection(reason="queue_full", http_status=429,
                             retry_after_ms=50.0)
        return None

    @property
    def clients(self) -> int:
        with self._lock:
            return len(self._buckets)
