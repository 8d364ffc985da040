"""Unit tests of the micro-batching queue (no daemon, fake flush)."""

from __future__ import annotations

import asyncio

import pytest

from repro.serve import MicroBatcher


def run(coro):
    return asyncio.run(coro)


async def _echo_flush(payloads):
    return [f"r:{p}" for p in payloads]


def test_concurrent_submits_coalesce_into_one_batch():
    """N submits that are all pending when the drain loop wakes ride
    one flush call."""
    batches = []

    async def flush(payloads):
        batches.append(list(payloads))
        return payloads

    async def main():
        batcher = MicroBatcher(flush, max_batch=16)
        batcher.start()
        results = await asyncio.gather(
            *(batcher.submit(i) for i in range(10)))
        await batcher.close()
        return results

    results = run(main())
    assert [r for r, _ in results] == list(range(10))
    # every request reports the size of the batch that carried it
    assert {size for _, size in results} == {10}
    assert len(batches) == 1 and sorted(batches[0]) == list(range(10))


def test_max_batch_splits_oversized_bursts():
    """A backlog drains in max_batch chunks, oldest first."""
    batches = []

    async def flush(payloads):
        batches.append(list(payloads))
        return payloads

    async def main():
        batcher = MicroBatcher(flush, max_batch=4)
        batcher.start()
        await asyncio.gather(*(batcher.submit(i) for i in range(10)))
        await batcher.close()

    run(main())
    assert batches == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]


def test_lone_request_is_flushed_without_waiting():
    """No timer: a lone request reaches flush within a few event-loop
    yields, with no wall-clock wait for companions."""
    batches = []

    async def flush(payloads):
        batches.append(list(payloads))
        return payloads

    async def main():
        batcher = MicroBatcher(flush, max_batch=64)
        batcher.start()
        pending = asyncio.ensure_future(batcher.submit("solo"))
        for _ in range(5):
            await asyncio.sleep(0)
        flushed = list(batches)
        done = pending.done()
        await batcher.close()
        return flushed, done, await pending

    flushed, done, result = run(main())
    assert flushed == [["solo"]]
    assert done and result == ("solo", 1)


def test_requests_arriving_during_a_flush_form_the_next_batch():
    """Back-pressure alone batches: while batch 1 is in flight, B, C
    and D queue up and then ride one flush together."""
    batches = []
    entered = None
    release = None

    async def flush(payloads):
        batches.append(list(payloads))
        if len(batches) == 1:
            entered.set()
            await release.wait()
        return payloads

    async def main():
        nonlocal entered, release
        entered, release = asyncio.Event(), asyncio.Event()
        batcher = MicroBatcher(flush, max_batch=64)
        batcher.start()
        first = asyncio.ensure_future(batcher.submit("A"))
        await entered.wait()
        rest = [asyncio.ensure_future(batcher.submit(p))
                for p in "BCD"]
        for _ in range(3):
            await asyncio.sleep(0)
        assert batcher.depth == 3     # queued behind the held batch
        release.set()
        results = await asyncio.gather(first, *rest)
        await batcher.close()
        return results

    results = run(main())
    assert batches == [["A"], ["B", "C", "D"]]
    assert results == [("A", 1), ("B", 3), ("C", 3), ("D", 3)]


def test_flush_exception_fails_the_batch_not_the_batcher():
    calls = {"n": 0}

    async def flaky(payloads):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("batch exploded")
        return payloads

    async def main():
        batcher = MicroBatcher(flaky, max_batch=8)
        batcher.start()
        with pytest.raises(RuntimeError, match="batch exploded"):
            await batcher.submit("a")
        # the drain loop survived and serves the next request
        result, _ = await batcher.submit("b")
        await batcher.close()
        return result

    assert run(main()) == "b"


def test_wrong_result_count_fails_the_batch():
    async def short(payloads):
        return payloads[:-1]

    async def main():
        batcher = MicroBatcher(short, max_batch=8)
        batcher.start()
        with pytest.raises(RuntimeError, match="results"):
            await batcher.submit("a")
        await batcher.close()

    run(main())


def test_close_drains_queued_requests():
    """close() answers what is already queued instead of dropping it."""

    async def main():
        batcher = MicroBatcher(_echo_flush, max_batch=4)
        batcher.start()
        pending = [asyncio.ensure_future(batcher.submit(i))
                   for i in range(6)]
        await asyncio.sleep(0)       # let the submissions enqueue
        await batcher.close()
        return await asyncio.gather(*pending)

    results = run(main())
    assert [r for r, _ in results] == [f"r:{i}" for i in range(6)]


def test_submit_after_close_raises():
    async def main():
        batcher = MicroBatcher(_echo_flush)
        batcher.start()
        await batcher.close()
        with pytest.raises(RuntimeError, match="closed"):
            await batcher.submit("late")

    run(main())


def test_depth_reflects_queued_requests():
    async def main():
        batcher = MicroBatcher(_echo_flush, max_batch=4)
        # not started: submissions pile up in the queue
        pending = []
        async def enqueue():
            pending.append(asyncio.ensure_future(batcher.submit(1)))
            await asyncio.sleep(0)
        await enqueue()
        await enqueue()
        depth = batcher.depth
        batcher.start()
        await batcher.close()
        await asyncio.gather(*pending)
        return depth

    assert run(main()) == 2


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        MicroBatcher(_echo_flush, max_batch=0)
