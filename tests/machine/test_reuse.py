"""Property tests for the reuse-distance sufficient statistics.

The fast path of the performance model rests on two identities; each
is checked here against the brute-force definition on random streams:

* ``prev_occurrence`` must equal the dict-of-last-positions
  definition (the model's vectorised pass counts distinct lines per
  window from it, and its predictions are asserted bit-identical to
  the per-window ``np.unique`` reference downstream);
* :class:`ReuseStats` must memoise per matrix object and report its
  build/hit counters faithfully.
"""

import numpy as np

from repro.machine.reuse import ReuseStats, prev_occurrence
from repro.obs.metrics import REGISTRY
from ..conftest import random_csr


def brute_prev(stream):
    out = np.full(len(stream), -1, dtype=np.int64)
    last = {}
    for i, v in enumerate(stream):
        if v in last:
            out[i] = last[v]
        last[v] = i
    return out


def random_streams(rng):
    """A spread of stream shapes: empty, constant, short, long, narrow
    and wide alphabets."""
    yield np.array([], dtype=np.int64)
    yield np.zeros(17, dtype=np.int64)
    yield np.arange(23, dtype=np.int64)
    for n, hi in [(1, 1), (2, 1), (50, 4), (200, 13), (1000, 50),
                  (1000, 700), (3000, 3)]:
        yield rng.integers(0, hi, n)


def test_prev_occurrence_matches_brute_force(rng):
    for stream in random_streams(rng):
        assert np.array_equal(prev_occurrence(stream), brute_prev(stream))


def test_reuse_stats_memoised_per_matrix(rng):
    a = random_csr(60, 300, rng)
    stats = ReuseStats.for_matrix(a)
    assert ReuseStats.for_matrix(a) is stats
    assert ReuseStats.for_matrix(random_csr(60, 300, rng)) is not stats


def test_reuse_stats_counters_track_builds_and_hits(rng):
    a = random_csr(60, 300, rng)
    stats = ReuseStats.for_matrix(a)
    before = REGISTRY.values()
    p1 = stats.prev(8)
    mid = REGISTRY.values()
    assert mid["reuse.builds"] == before["reuse.builds"] + 1
    assert mid["reuse.hits"] == before["reuse.hits"]
    p2 = stats.prev(8)
    after = REGISTRY.values()
    assert p2 is p1
    assert after["reuse.builds"] == mid["reuse.builds"]
    assert after["reuse.hits"] == mid["reuse.hits"] + 1
    # a different line size is its own statistic, not a hit
    stats.prev(4)
    assert REGISTRY.values()["reuse.builds"] == after["reuse.builds"] + 1


def test_reuse_stats_values(rng):
    a = random_csr(50, 400, rng)
    stats = ReuseStats.for_matrix(a)
    assert np.array_equal(stats.lines(8), a.colidx // 8)
    assert np.array_equal(stats.prev(8), brute_prev(a.colidx // 8))
    lengths = np.diff(a.rowptr)
    for lo, hi in [(0, a.nrows), (5, 20), (7, 8), (3, 3)]:
        expect = (int(np.count_nonzero(np.diff(lengths[lo:hi])))
                  if hi - lo >= 2 else 0)
        p = stats.row_change_prefix()
        got = int(p[hi - 1] - p[lo]) if hi - lo >= 2 else 0
        assert got == expect


def test_reuse_stats_dropped_on_pickle(rng):
    import pickle

    a = random_csr(30, 120, rng)
    ReuseStats.for_matrix(a).prepare()
    b = pickle.loads(pickle.dumps(a))
    assert getattr(b, ReuseStats._ATTR, None) is None
    assert np.array_equal(b.colidx, a.colidx)


def test_prepare_materialises_lazily_built_arrays(rng):
    a = random_csr(30, 120, rng)
    stats = ReuseStats.for_matrix(a).prepare(words_per_lines=(8, 4))
    assert set(stats._prev) == {8, 4}
    assert stats._row_change_prefix is not None
