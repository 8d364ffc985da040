"""How a matrix reaches a pool worker, and RSS-bounded sharding.

A pool task carries its corpus entry and nothing else.  An in-RAM
matrix rides in the task the pool pickles; a snapshot-backed
:class:`~repro.storage.snapshot.StoredEntry` pickles as metadata and
the worker memmaps its arrays through the per-process attach memo.
Covered here: pool records equal serial records for both kinds of
corpus, an interrupted pool sweep resumes to the full run's records,
the worker-side attach is timed under ``storage`` and memoised, the
byte-bounded shard scheduler, and the ``mapped_bytes`` accounting of
memmap-backed ordering-cache entries.
"""

import pickle
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.errors import HarnessError
from repro.generators import build_corpus
from repro.harness.engine import SweepEngine, _resolve_task_matrix, _TaskSpec
from repro.machine import get_architecture
from repro.storage import ensure_corpus_snapshot
from repro.storage import format as fmt


@pytest.fixture(scope="module")
def tiny_corpus():
    return build_corpus("tiny", seed=0, groups=("Banded",))[:3]


@pytest.fixture(scope="module")
def tiny_snapshot(tmp_path_factory):
    """The same three matrices as ``tiny_corpus``, stored on disk."""
    return ensure_corpus_snapshot(
        str(tmp_path_factory.mktemp("snap") / "c"), tier="tiny", seed=0,
        limit=3, groups=("Banded",))


@pytest.fixture(scope="module")
def rome():
    return [get_architecture("Rome")]


def _run(corpus, archs, **kw):
    engine = SweepEngine(corpus, archs, ["RCM", "Gray"],
                         kernels=("1d",), **kw)
    result = engine.run()
    assert not result.failed
    return engine, sorted(
        (r.matrix, r.ordering, r.kernel, r.architecture, r.gflops_max,
         r.gflops_mean, r.seconds) for r in result.records)


# ----------------------------------------------------------------------
# constructor policy
# ----------------------------------------------------------------------
def test_transport_validation(tiny_corpus, rome):
    with pytest.raises(HarnessError, match="shard_bytes"):
        SweepEngine(tiny_corpus, rome, ["RCM"], shard_bytes=0)
    # there is one way to ship a matrix, so nothing to choose
    for knob in ({"transport": "shm"}, {"shared_memory": True}):
        with pytest.raises(TypeError):
            SweepEngine(tiny_corpus, rome, ["RCM"], **knob)


# ----------------------------------------------------------------------
# pool records equal serial records
# ----------------------------------------------------------------------
def test_pool_records_identical_to_serial(tiny_corpus, tiny_snapshot,
                                          rome):
    _, serial = _run(tiny_corpus, rome, seed=0, jobs=1)
    _, pooled = _run(tiny_corpus, rome, seed=0, jobs=2)
    assert pooled == serial
    _, stored = _run(list(tiny_snapshot.entries), rome, seed=0, jobs=2,
                     snapshot=tiny_snapshot)
    assert stored == serial


def test_memmap_over_snapshot_matches_pickle(tiny_corpus, tiny_snapshot,
                                             rome):
    """Stored entries attached by memmap give the records of the same
    matrices pickled into the pool's tasks."""
    _, ref = _run(tiny_corpus, rome, seed=0, jobs=2)
    engine, mm = _run(list(tiny_snapshot.entries), rome, seed=0, jobs=2,
                      snapshot=tiny_snapshot)
    assert mm == ref
    assert engine.metrics.stages["storage"] > 0.0
    assert "serialize" not in engine.metrics.stages
    assert engine.signature()["snapshot"] == tiny_snapshot.signature


def test_interrupted_pool_sweep_resumes_to_full_records(tiny_corpus, rome,
                                                        tmp_path):
    journal = str(tmp_path / "sweep.jsonl")
    _, full = _run(tiny_corpus, rome, seed=0, jobs=2, journal_path=journal)

    # simulate a kill partway through: drop the last 4 journaled cells
    with open(journal) as f:
        lines = f.readlines()
    with open(journal, "wt") as f:
        f.writelines(lines[:-4])

    engine, resumed = _run(tiny_corpus, rome, seed=0, jobs=2,
                           journal_path=journal, resume=True)
    assert resumed == full
    assert engine.metrics.cells["resumed"] == len(lines) - 1 - 4


# ----------------------------------------------------------------------
# sharding
# ----------------------------------------------------------------------
def test_shard_tasks_bounds_bytes(tiny_corpus, rome):
    class T:  # minimal stand-in for _TaskSpec
        def __init__(self, entry):
            self.entry = entry

    per = SweepEngine._entry_nbytes(tiny_corpus[0])
    assert per == (tiny_corpus[0].matrix.nrows + 1) * 8 + \
        tiny_corpus[0].matrix.nnz * 16

    tasks = [T(e) for e in tiny_corpus * 4]
    engine = SweepEngine(tiny_corpus, rome, ["RCM"], shard_bytes=1)
    # budget smaller than any matrix: one task per shard, none dropped
    shards = engine._shard_tasks(tasks)
    assert [len(s) for s in shards] == [1] * len(tasks)

    engine = SweepEngine(tiny_corpus, rome, ["RCM"])
    assert engine._shard_tasks(tasks) == [tasks]  # no budget: one shard

    budget = sum(SweepEngine._entry_nbytes(t.entry) for t in tasks[:3])
    engine = SweepEngine(tiny_corpus, rome, ["RCM"], shard_bytes=budget)
    shards = engine._shard_tasks(tasks)
    assert sum(len(s) for s in shards) == len(tasks)  # order-preserving
    assert [t.entry.name for s in shards for t in s] == \
        [t.entry.name for t in tasks]
    for shard in shards[:-1]:
        assert sum(SweepEngine._entry_nbytes(t.entry)
                   for t in shard) <= budget


def test_sharded_pool_sweep_matches_serial(tiny_corpus, rome):
    _, serial = _run(tiny_corpus, rome, seed=0, jobs=1)
    engine, sharded = _run(tiny_corpus, rome, seed=0, jobs=2,
                           shard_bytes=1)
    assert sharded == serial
    assert engine.metrics.workers["shards"] > 1


# ----------------------------------------------------------------------
# worker-side attach
# ----------------------------------------------------------------------
def test_worker_attach_resolves_memmap(tiny_snapshot):
    """The worker-side resolver attaches a stored matrix read-only and
    times it under ``storage``."""
    fmt.detach_all()
    entry = tiny_snapshot.entries[0]
    task = _TaskSpec(entry=entry, pending=frozenset())
    timings = {"storage": 0.0}
    a = _resolve_task_matrix(task, timings)
    assert a.nnz == entry.nnz
    assert not a.values.flags.writeable
    assert timings["storage"] > 0.0
    fmt.detach_all()


def _resolve_twice(task):
    """Pool-side probe: resolve one task's matrix twice in this worker
    and report the attach memo."""
    timings = {"storage": 0.0}
    first = _resolve_task_matrix(task, timings)
    second = _resolve_task_matrix(task, timings)
    return first is second, fmt.attach_cache_stats()


def test_worker_attach_is_memoised_per_process(tiny_snapshot):
    """However often a worker sees a stored matrix (crash-retry rounds
    resubmit tasks), it maps it once; the task itself is metadata."""
    task = _TaskSpec(entry=tiny_snapshot.entries[0], pending=frozenset())
    assert len(pickle.dumps(task)) < 4096
    with ProcessPoolExecutor(max_workers=1,
                             initializer=fmt.detach_all) as pool:
        same, _ = pool.submit(_resolve_twice, task).result()
        again, stats = pool.submit(_resolve_twice, task).result()
    assert same and again
    assert (stats["entries"], stats["misses"], stats["hits"]) == (1, 1, 3)
    assert stats["mapped_bytes"] > 0


# ----------------------------------------------------------------------
# ordering-cache stats must not bill mapped permutations
# ----------------------------------------------------------------------
def test_ordering_cache_reports_mapped_separately(tmp_path):
    from types import SimpleNamespace

    from repro.harness.runner import OrderingCache
    from repro.obs.cachestats import CACHE_STATS_KEYS

    cache = OrderingCache()
    heap_perm = np.arange(64)
    cache._memory["m1/RCM"] = SimpleNamespace(perm=heap_perm)
    stats = cache.stats
    assert all(k in stats for k in CACHE_STATS_KEYS)
    assert stats["size_bytes"] == heap_perm.nbytes
    assert stats["mapped_bytes"] == 0

    # a memmap-backed permutation must move to mapped_bytes
    mpath = tmp_path / "perm.npy"
    np.save(mpath, np.arange(128))
    mapped_perm = np.load(mpath, mmap_mode="r")
    cache._memory["m2/RCM"] = SimpleNamespace(perm=mapped_perm)
    stats = cache.stats
    assert stats["size_bytes"] == heap_perm.nbytes
    assert stats["mapped_bytes"] == mapped_perm.nbytes
