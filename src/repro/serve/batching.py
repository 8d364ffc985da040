"""Request micro-batching: coalesce concurrent advise requests.

Network clients arrive one request at a time, but the daemon hands
work to its executor thread a batch at a time: one thread hop per
batch instead of per request, with the batch advised in arrival order
while the event loop keeps accepting.  :class:`MicroBatcher` bridges
the two: requests enqueue with a future, a single drain loop collects
them into batches bounded by **max_batch**, and each batch is handed
to an async ``flush`` callback whose results resolve the futures in
order.

Batches form from back-pressure alone, never from a timer: a batch is
the request at the head of the queue plus whatever is already queued
behind it (up to ``max_batch``), flushed at once.  Requests that
arrive while a batch is in flight queue up and become the next batch.
So a request never waits for company — under light load batches are
size 1 and the daemon behaves like the direct library call; under load
the queue fills while the previous batch is in flight and batches grow
toward ``max_batch`` with no added wait.

Observability: every batch feeds the ``serve.batch_size`` histogram
and every request's queue wait feeds ``serve.queue_wait_seconds`` —
the bench gate (``benchmarks/bench_serving.py``) asserts the mean
batch size exceeds 1 under load, which is the proof that batching
actually happens.
"""

from __future__ import annotations

import asyncio
import time

from ..obs.metrics import REGISTRY
from ..obs.trace import TRACER, new_span_id

__all__ = ["MicroBatcher"]

#: batch-size buckets: powers of two up to far beyond any sane
#: ``max_batch`` (fixed bounds keep histograms mergeable, see
#: :func:`repro.obs.metrics.log_buckets`)
BATCH_BOUNDS = (1, 2, 4, 8, 16, 32, 64, 128, 256)

_BATCHES = REGISTRY.counter("serve.batches")
_BATCH_SIZES = REGISTRY.histogram("serve.batch_size",
                                  bounds=BATCH_BOUNDS)
_QUEUE_WAIT = REGISTRY.histogram("serve.queue_wait_seconds")

#: queue sentinel that tells the drain loop to finish up and exit
_STOP = object()


class MicroBatcher:
    """A bounded coalescing queue draining into an async batch callback.

    Parameters
    ----------
    flush:
        ``async callable(list[payload]) -> list[result]`` — must return
        one result per payload, in order.  An exception fails every
        request of that batch (each pending future gets it), never the
        batcher itself.
    max_batch:
        Largest batch handed to ``flush``.
    """

    def __init__(self, flush, max_batch: int = 32) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self._flush = flush
        self.max_batch = int(max_batch)
        self._queue: asyncio.Queue = asyncio.Queue()
        self._task: asyncio.Task | None = None
        self._closed = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the drain loop on the running event loop."""
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(
                self._drain_loop(), name="microbatcher-drain")

    @property
    def depth(self) -> int:
        """Requests waiting in the queue (admission control reads
        this *before* enqueueing)."""
        return self._queue.qsize()

    async def submit(self, payload):
        """Enqueue one payload; resolves with ``(result, batch_size)``
        — the flush result plus the size of the micro-batch that
        carried it (serving responses report it to the client)."""
        if self._closed:
            raise RuntimeError("MicroBatcher is closed")
        fut = asyncio.get_running_loop().create_future()
        self._queue.put_nowait((payload, fut, time.perf_counter()))
        return await fut

    async def close(self) -> None:
        """Stop accepting, drain everything queued, stop the loop."""
        if self._closed:
            if self._task is not None:
                await self._task
            return
        self._closed = True
        if self._task is not None:
            self._queue.put_nowait(_STOP)
            await self._task
            self._task = None

    # ------------------------------------------------------------------
    async def _drain_loop(self) -> None:
        # close() marks the batcher closed before it enqueues _STOP, so
        # _STOP is always the last item: everything ahead of it is
        # still flushed, in max_batch chunks
        while True:
            batch = []
            item = await self._queue.get()
            while item is not _STOP:
                batch.append(item)
                if len(batch) == self.max_batch or self._queue.empty():
                    break
                item = self._queue.get_nowait()
            if batch:
                await self._run_batch(batch)
            if item is _STOP:
                return

    async def _run_batch(self, batch: list) -> None:
        now = time.perf_counter()
        for payload, _, enqueued in batch:
            _QUEUE_WAIT.observe(now - enqueued)
            # with tracing on, each request's time-in-queue becomes a
            # span parented to its serve.request span (payloads that
            # carry no span_id — non-serving users — record nothing)
            if TRACER.enabled and getattr(payload, "span_id", None):
                TRACER.record_span(
                    "serve.queued", enqueued, now - enqueued,
                    span_id=new_span_id(), parent_id=payload.span_id,
                    trace_id=getattr(payload, "trace_id", None),
                    batch_size=len(batch))
        _BATCHES.inc()
        _BATCH_SIZES.observe(len(batch))
        payloads = [payload for payload, _, _ in batch]
        try:
            results = await self._flush(payloads)
            if len(results) != len(batch):
                raise RuntimeError(
                    f"flush returned {len(results)} results for "
                    f"{len(batch)} payloads")
        except Exception as e:  # noqa: BLE001 — failing the batch,
            for _, fut, _ in batch:     # never the drain loop
                if not fut.done():
                    fut.set_exception(e)
            return
        for (_, fut, _), result in zip(batch, results):
            if not fut.done():
                fut.set_result((result, len(batch)))
