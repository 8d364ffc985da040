"""Corpus snapshots: torn-write recovery, spec gating, provenance.

The torn/truncated recovery tests are the dedicated coverage for the
mid-write-kill story: a snapshot killed between array flush and index
write is detected (CRC/size), quarantined — never deleted — and
regenerated deterministically to the same content address.
"""

import json
import os
import pickle

import numpy as np
import pytest

from repro.errors import StorageError
from repro.obs.metrics import REGISTRY
from repro.storage import (corpus_signature, ensure_corpus_snapshot,
                           open_corpus_snapshot)
from repro.storage import format as fmt

SPEC = dict(tier="tiny", limit=2, groups=("Banded",))


@pytest.fixture(autouse=True)
def _fresh_attach_memo():
    fmt.detach_all()
    yield
    fmt.detach_all()


def _ensure(path, seed=0, **over):
    spec = dict(SPEC)
    spec.update(over)
    return ensure_corpus_snapshot(str(path), seed=seed, **spec)


def _counter(name):
    return REGISTRY.counter(name).value


def test_build_then_reuse(tmp_path):
    snap = _ensure(tmp_path / "c")
    assert len(snap) == 2
    built0 = _counter("storage.snapshots_built")
    again = _ensure(tmp_path / "c")
    assert again.signature == snap.signature
    assert _counter("storage.snapshots_built") == built0  # nothing rebuilt


def test_entries_duck_type_corpus(tmp_path):
    from repro.generators import build_corpus

    snap = _ensure(tmp_path / "c")
    ref = build_corpus("tiny", seed=0, groups=("Banded",))[:2]
    for se, ce in zip(snap.entries, ref):
        assert (se.name, se.group, se.kind, se.spd) == \
            (ce.name, ce.group, ce.kind, ce.spd)
        assert (se.nrows, se.ncols, se.nnz) == \
            (ce.matrix.nrows, ce.matrix.ncols, ce.matrix.nnz)
        np.testing.assert_array_equal(se.matrix.values, ce.matrix.values)


def test_stored_entry_pickles_without_arrays(tmp_path):
    """Workers receive metadata only; arrays are memmapped on demand."""
    entry = _ensure(tmp_path / "c").entries[0]
    blob = pickle.dumps(entry)
    assert len(blob) < 4096
    clone = pickle.loads(blob)
    assert clone.path == entry.path
    np.testing.assert_array_equal(clone.matrix.values, entry.matrix.values)


def test_torn_matrix_quarantined_and_regenerated(tmp_path):
    """Killed mid-write: torn arrays + missing index.  The repair must
    quarantine (not delete) and converge to the clean address."""
    clean = _ensure(tmp_path / "clean")
    torn_dir = tmp_path / "torn"
    torn = _ensure(torn_dir)
    victim = torn.entries[0]
    vpath = os.path.join(victim.path, "values.bin")
    with open(vpath, "r+b") as fh:
        fh.truncate(os.path.getsize(vpath) // 2)
    os.remove(torn_dir / "corpus.json")

    quar0 = _counter("storage.snapshots_quarantined")
    repaired = ensure_corpus_snapshot(str(torn_dir), seed=0, **SPEC)
    assert repaired.signature == clean.signature
    assert _counter("storage.snapshots_quarantined") == quar0 + 1
    qdir = torn_dir / "_quarantine"
    assert qdir.is_dir() and len(list(qdir.iterdir())) == 1
    # the regenerated corpus passes full-CRC verification
    open_corpus_snapshot(str(torn_dir), verify="crc")


def test_bitrot_behind_valid_index_is_repaired(tmp_path):
    """A corrupt matrix *with* an intact index: the open fails, and
    re-ensuring falls through to per-matrix repair."""
    snap = _ensure(tmp_path / "c")
    vpath = os.path.join(snap.entries[1].path, "values.bin")
    with open(vpath, "r+b") as fh:
        fh.truncate(os.path.getsize(vpath) - 8)
    with pytest.raises(StorageError):
        open_corpus_snapshot(str(tmp_path / "c"))
    repaired = _ensure(tmp_path / "c")
    assert repaired.signature == snap.signature


def test_seed_change_rebuilds(tmp_path):
    old = _ensure(tmp_path / "c", seed=0)
    built0 = _counter("storage.snapshots_built")
    new = _ensure(tmp_path / "c", seed=1)
    assert new.signature != old.signature
    assert _counter("storage.snapshots_built") == built0 + 2
    fresh = _ensure(tmp_path / "fresh", seed=1)
    assert new.signature == fresh.signature


def test_replaced_matrix_behind_index_detected(tmp_path):
    """Swapping a matrix directory without updating the index must not
    open cleanly — the recomputed address exposes the swap."""
    snap = _ensure(tmp_path / "c")
    other = _ensure(tmp_path / "other", seed=3)
    import shutil
    victim = snap.entries[0]
    shutil.rmtree(victim.path)
    shutil.copytree(other.entries[0].path, victim.path)
    with pytest.raises(StorageError, match="content address"):
        open_corpus_snapshot(str(tmp_path / "c"))


def test_corpus_signature_matches_open(tmp_path):
    snap = _ensure(tmp_path / "c")
    assert corpus_signature(str(tmp_path / "c")) == snap.signature


def test_open_rejects_non_snapshot(tmp_path):
    with pytest.raises(StorageError, match="not a corpus snapshot"):
        open_corpus_snapshot(str(tmp_path))
    (tmp_path / "corpus.json").write_text(json.dumps({"format": "nope"}))
    with pytest.raises(StorageError):
        open_corpus_snapshot(str(tmp_path))


# ----------------------------------------------------------------------
# manifest provenance (repro report --check)
# ----------------------------------------------------------------------
def test_report_flags_snapshot_mismatch(tmp_path):
    from repro.obs.report import _check_snapshot_provenance

    snap = _ensure(tmp_path / "c")
    record = {"path": str(tmp_path / "c"), "signature": snap.signature}

    assert _check_snapshot_provenance({"config": {}}) == []
    assert _check_snapshot_provenance({"config": {"snapshot": record}}) == []
    incomplete = _check_snapshot_provenance(
        {"config": {"snapshot": {"path": record["path"]}}})
    assert incomplete and "incomplete" in incomplete[0]

    # rebuild under a different seed: recorded address goes stale
    _ensure(tmp_path / "c", seed=9)
    problems = _check_snapshot_provenance({"config": {"snapshot": record}})
    assert problems and "content address" in problems[0]

    gone = _check_snapshot_provenance({"config": {"snapshot": {
        "path": str(tmp_path / "missing"), "signature": "feed"}}})
    assert gone and "unreadable" in gone[0]
