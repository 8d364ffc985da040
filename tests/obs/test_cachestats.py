"""Every cache in the code base speaks the shared stats schema."""

import numpy as np
import pytest

from repro.obs.cachestats import (
    CACHE_STATS_KEYS,
    cache_stats,
    mapped_nbytes,
    sizeof_value,
)


def _assert_shared_shape(stats: dict) -> None:
    for key in CACHE_STATS_KEYS:
        assert key in stats, f"missing shared key {key!r}"
    assert stats["hits"] >= 0 and stats["misses"] >= 0
    assert stats["evictions"] >= 0 and stats["size_bytes"] >= 0
    assert 0.0 <= stats["hit_rate"] <= 1.0


def test_cache_stats_helper_computes_hit_rate():
    s = cache_stats(hits=3, misses=1, size_bytes=64, extra_key=9)
    _assert_shared_shape(s)
    assert s["hit_rate"] == pytest.approx(0.75)
    assert s["extra_key"] == 9
    assert cache_stats()["hit_rate"] == 0.0  # idle cache, no div-by-zero


def test_sizeof_value_prefers_nbytes():
    arr = np.zeros(10, dtype=np.int64)
    assert sizeof_value(arr) == 80
    assert sizeof_value([arr, arr]) >= 160
    assert sizeof_value({"k": arr}) >= 80
    assert sizeof_value("text") > 0


def test_mapped_nbytes_walks_base_chain(tmp_path):
    heap = np.zeros(16)
    assert mapped_nbytes(heap) == 0
    assert mapped_nbytes("not an array") == 0

    np.save(tmp_path / "a.npy", np.arange(32))
    mm = np.load(tmp_path / "a.npy", mmap_mode="r")
    assert mapped_nbytes(mm) == mm.nbytes
    # a view of a memmap (e.g. CSRMatrix astype(copy=False) passthrough)
    # is still disk-backed and must be billed as mapped
    view = mm[4:]
    assert isinstance(view, np.ndarray)
    assert mapped_nbytes(view) == view.nbytes


# ----------------------------------------------------------------------
# the three real caches all expose the shared keys (regression)
# ----------------------------------------------------------------------
def test_ordering_cache_stats_shape(small_symmetric_matrix):
    from repro.harness.runner import OrderingCache

    cache = OrderingCache()
    cache.get(small_symmetric_matrix, "m", "RCM", nparts=4, seed=0)
    cache.get(small_symmetric_matrix, "m", "RCM", nparts=4, seed=0)
    stats = cache.stats
    _assert_shared_shape(stats)
    assert stats["hits"] == 1 and stats["misses"] == 1
    assert stats["requests"] == 2  # extras stay
    assert stats["size_bytes"] > 0  # one permutation resident


def test_advisor_lru_cache_stats_shape():
    from repro.advisor.cache import LRUCache

    cache = LRUCache(capacity=2)
    cache.get("a")                      # miss
    cache.put("a", np.arange(4))
    cache.get("a")                      # hit
    cache.put("b", np.arange(4))
    cache.put("c", np.arange(4))        # evicts "a"
    stats = cache.stats
    _assert_shared_shape(stats)
    assert stats["hits"] == 1 and stats["misses"] == 1
    assert stats["evictions"] == 1
    assert stats["size"] == 2 and stats["capacity"] == 2
    assert stats["size_bytes"] >= 2 * np.arange(4).nbytes


def test_idle_caches_report_zero_hit_rate():
    # zero accesses must never divide by zero (the guard lives once, in
    # cache_stats) — regression across every cache sharing the schema
    from repro.advisor.cache import LRUCache as AdvisorLRU
    from repro.harness.runner import OrderingCache
    from repro.machine.cache import LRUCache as SimLRU

    for stats in (OrderingCache().stats,
                  AdvisorLRU(capacity=2).stats,
                  SimLRU(size=1024, line_size=64, associativity=2).stats):
        _assert_shared_shape(stats)
        assert stats["hit_rate"] == 0.0
        assert stats["hits"] == 0 and stats["misses"] == 0


def test_simulator_cache_stats_shape():
    from repro.machine.cache import LRUCache

    cache = LRUCache(size=128, line_size=64, associativity=1)  # 2 sets
    cache.access(0)        # miss (line 0, set 0)
    cache.access(0)        # hit
    cache.access(128)      # miss (line 2, set 0) — evicts line 0
    stats = cache.stats
    _assert_shared_shape(stats)
    assert stats["hits"] == 1 and stats["misses"] == 2
    assert stats["evictions"] == 1
    assert stats["size_bytes"] == 64  # one line resident
    assert stats["hit_rate"] == pytest.approx(1 / 3)


def test_reuse_stats_cache_shape(small_symmetric_matrix):
    from repro.machine.reuse import ReuseStats, reuse_cache_stats

    before = reuse_cache_stats()
    stats_obj = ReuseStats.for_matrix(small_symmetric_matrix)
    stats_obj.prev(8)
    stats_obj.prev(8)
    after = reuse_cache_stats()
    _assert_shared_shape(after)
    assert after["misses"] == before["misses"] + 1  # one build
    assert after["hits"] == before["hits"] + 1      # one memoised serve
    assert after["size_bytes"] > before["size_bytes"]
    assert after["evictions"] == 0  # unbounded, dies with the matrix
