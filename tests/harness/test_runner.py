import json
import zlib

import numpy as np
import pytest

from repro.generators import build_corpus
from repro.harness import OrderingCache, SweepEngine
from repro.harness.runner import MAX_HEADER_BYTES
from repro.machine import get_architecture


@pytest.fixture(scope="module")
def tiny_corpus():
    return build_corpus("tiny", seed=0)[:4]


@pytest.fixture(scope="module")
def small_sweep(tiny_corpus):
    archs = [get_architecture("Rome")]
    return SweepEngine(tiny_corpus, archs, ["RCM", "Gray"]).run()


def test_sweep_record_count(small_sweep, tiny_corpus):
    # (1 baseline + 2 orderings) x 2 kernels x 4 matrices x 1 arch
    assert len(small_sweep.records) == 3 * 2 * 4


def test_sweep_lookup(small_sweep, tiny_corpus):
    name = tiny_corpus[0].name
    rec = small_sweep.lookup(name, "original", "1d", "Rome")
    assert rec.matrix == name
    with pytest.raises(KeyError):
        small_sweep.lookup(name, "GP", "1d", "Rome")


def test_sweep_speedups(small_sweep, tiny_corpus):
    sp = small_sweep.speedups("RCM", "1d", "Rome")
    assert sp.shape == (len(tiny_corpus),)
    assert np.all(sp > 0)


def test_sweep_matrices_order(small_sweep, tiny_corpus):
    assert small_sweep.matrices() == [e.name for e in tiny_corpus]


def test_ordering_cache_memoises(tiny_corpus):
    cache = OrderingCache()
    e = tiny_corpus[0]
    r1 = cache.get(e.matrix, e.name, "RCM")
    r2 = cache.get(e.matrix, e.name, "RCM")
    assert r1 is r2


def test_ordering_cache_nparts_only_matters_for_gp(tiny_corpus):
    cache = OrderingCache()
    e = tiny_corpus[0]
    a = cache.get(e.matrix, e.name, "RCM", nparts=16)
    b = cache.get(e.matrix, e.name, "RCM", nparts=128)
    assert a is b
    g16 = cache.get(e.matrix, e.name, "GP", nparts=4)
    g32 = cache.get(e.matrix, e.name, "GP", nparts=8)
    assert g16 is not g32


def test_ordering_cache_disk_roundtrip(tiny_corpus, tmp_path):
    e = tiny_corpus[0]
    c1 = OrderingCache(path=str(tmp_path))
    r1 = c1.get(e.matrix, e.name, "RCM")
    c2 = OrderingCache(path=str(tmp_path))
    r2 = c2.get(e.matrix, e.name, "RCM")
    assert np.array_equal(r1.perm, r2.perm)
    assert r2.algorithm == "RCM"
    assert r2.symmetric


def test_model_factory_hook(tiny_corpus):
    from repro.machine import PerfModel

    calls = []

    def factory(arch):
        calls.append(arch.name)
        return PerfModel(arch, locality_term=False)

    SweepEngine(tiny_corpus[:1], [get_architecture("Rome")], ["Gray"],
                model_factory=factory).run()
    assert calls == ["Rome"]


def test_ordering_cache_stats(tiny_corpus):
    cache = OrderingCache()
    e = tiny_corpus[0]
    assert cache.stats == {"hits": 0, "disk_hits": 0, "misses": 0,
                           "requests": 0, "hit_rate": 0.0,
                           "evictions": 0, "size_bytes": 0,
                           "mapped_bytes": 0}
    cache.get(e.matrix, e.name, "RCM")
    cache.get(e.matrix, e.name, "RCM")
    cache.get(e.matrix, e.name, "Gray")
    s = cache.stats
    assert s["hits"] == 1 and s["misses"] == 2
    assert s["requests"] == 3
    assert s["hit_rate"] == pytest.approx(1 / 3)


def test_ordering_cache_stats_disk(tiny_corpus, tmp_path):
    e = tiny_corpus[0]
    c1 = OrderingCache(path=str(tmp_path))
    c1.get(e.matrix, e.name, "RCM")
    assert c1.stats["misses"] == 1
    c2 = OrderingCache(path=str(tmp_path))
    c2.get(e.matrix, e.name, "RCM")
    c2.get(e.matrix, e.name, "RCM")
    s = c2.stats
    assert s["disk_hits"] == 1 and s["hits"] == 1 and s["misses"] == 0


def test_ordering_cache_key_folds_in_shape_and_nnz(tmp_path):
    """Regression: two corpora sharing a matrix *name* but different
    dimensions/nnz must never alias to the same cached permutation."""
    from repro.generators import stencil_2d

    small = stencil_2d(5, 5, seed=0)
    large = stencil_2d(9, 9, seed=0)
    cache = OrderingCache(path=str(tmp_path))
    r_small = cache.get(small, "shared_name", "RCM")
    r_large = cache.get(large, "shared_name", "RCM")
    assert cache.stats["misses"] == 2  # no alias
    assert r_small.n == small.nrows and r_large.n == large.nrows
    # and the disk entries are distinct files
    assert len(list(tmp_path.glob("*.perm"))) == 2


def test_ordering_cache_key_folds_in_structure():
    """Same name, same shape, same nnz, different sparsity structure:
    the CRC fingerprint must keep the entries apart."""
    from repro.matrix import coo_from_arrays, csr_from_coo

    def diag_like(cols):
        rows = np.arange(4)
        return csr_from_coo(coo_from_arrays(
            4, 4, rows, np.array(cols), np.ones(4)))

    a = diag_like([0, 1, 2, 3])
    b = diag_like([1, 0, 3, 2])
    assert (a.nrows, a.ncols, a.nnz) == (b.nrows, b.ncols, b.nnz)
    cache = OrderingCache()
    cache.get(a, "same", "Gray")
    cache.get(b, "same", "Gray")
    assert cache.stats["misses"] == 2


def test_ordering_cache_key_folds_in_seed(tiny_corpus):
    """A seed-dependent ordering computed under two seeds must occupy
    two cache entries."""
    e = tiny_corpus[0]
    cache = OrderingCache()
    cache.get(e.matrix, e.name, "GP", nparts=4, seed=0)
    cache.get(e.matrix, e.name, "GP", nparts=4, seed=1)
    assert cache.stats["misses"] == 2
    cache.get(e.matrix, e.name, "GP", nparts=4, seed=0)
    assert cache.stats["hits"] == 1


def test_ordering_cache_survives_corrupt_disk_entry(tiny_corpus, tmp_path):
    e = tiny_corpus[0]
    c1 = OrderingCache(path=str(tmp_path))
    r1 = c1.get(e.matrix, e.name, "RCM")
    # truncate the artifact, as a botched copy or git filter would
    npz = next(tmp_path.glob("*.perm"))
    npz.write_bytes(npz.read_bytes()[:100])
    c2 = OrderingCache(path=str(tmp_path))
    r2 = c2.get(e.matrix, e.name, "RCM")
    assert np.array_equal(r1.perm, r2.perm)
    assert c2.stats["misses"] == 1 and c2.stats["disk_hits"] == 0
    # the recompute overwrote the corrupt file: next cache reads it
    c3 = OrderingCache(path=str(tmp_path))
    c3.get(e.matrix, e.name, "RCM")
    assert c3.stats["disk_hits"] == 1


# ----------------------------------------------------------------------
# the on-disk entry is a trust boundary: every malformed entry is a miss
# ----------------------------------------------------------------------
def _split(data):
    hlen = int.from_bytes(data[:4], "little")
    return json.loads(data[4:4 + hlen]), data[4 + hlen:]


def _join(header, body):
    raw = header if isinstance(header, bytes) else json.dumps(header).encode()
    return len(raw).to_bytes(4, "little") + raw + body


def _with_header(**fields):
    def edit(data):
        header, body = _split(data)
        return _join({**header, **fields}, body)
    return edit


def _flip_body_byte(data):
    out = bytearray(data)
    out[-3] ^= 0x01
    return bytes(out)


def _swap_first_two_entries(data):
    # still a bijection: only the CRC can tell
    header, body = _split(data)
    return _join(header, body[8:16] + body[:8] + body[16:])


def _one_row_too_many(data):
    # a valid, CRC-consistent permutation of n + 1 rows
    header, body = _split(data)
    body += np.array([header["n"]], dtype="<i8").tobytes()
    return _join({**header, "n": header["n"] + 1,
                  "crc32": zlib.crc32(body)}, body)


def _padded_header(data):
    header, body = _split(data)
    raw = json.dumps(header).encode()
    return _join(raw.ljust(MAX_HEADER_BYTES + 1), body)


CORRUPTIONS = {
    "truncated": lambda d: d[:-5],
    "flipped-body-byte": _flip_body_byte,
    "swapped-entries": _swap_first_two_entries,
    "header-longer-than-file": lambda d: len(d).to_bytes(4, "little") + d[4:],
    "header-over-limit": _padded_header,
    "non-json-header": lambda d: _join(b"\xffnot json", _split(d)[1]),
    "nan-seconds": _with_header(seconds=float("nan")),
    "negative-seconds": _with_header(seconds=-1.0),
    "algorithm-differs-from-key": _with_header(algorithm="Gray"),
    "n-differs-from-nrows": _one_row_too_many,
}


def _fill(entry, path):
    return OrderingCache(path=str(path)).get(entry.matrix, entry.name, "RCM")


def test_reencoded_disk_entry_is_a_hit(tiny_corpus, tmp_path):
    """The corruption helpers re-encode faithfully, so each case below
    is rejected for its own defect alone."""
    e = tiny_corpus[0]
    r1 = _fill(e, tmp_path)
    f = next(tmp_path.glob("*.perm"))
    f.write_bytes(_join(*_split(f.read_bytes())))
    c2 = OrderingCache(path=str(tmp_path))
    assert np.array_equal(c2.get(e.matrix, e.name, "RCM").perm, r1.perm)
    assert c2.stats["disk_hits"] == 1


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_corrupt_disk_entry_is_recomputed(tiny_corpus, tmp_path, corruption):
    e = tiny_corpus[0]
    r1 = _fill(e, tmp_path)
    f = next(tmp_path.glob("*.perm"))
    f.write_bytes(CORRUPTIONS[corruption](f.read_bytes()))
    c2 = OrderingCache(path=str(tmp_path))
    r2 = c2.get(e.matrix, e.name, "RCM")
    assert np.array_equal(r1.perm, r2.perm)
    assert c2.stats["misses"] == 1 and c2.stats["disk_hits"] == 0
    # the recompute overwrote the entry: a fresh cache now hits
    c3 = OrderingCache(path=str(tmp_path))
    assert np.array_equal(c3.get(e.matrix, e.name, "RCM").perm, r1.perm)
    assert c3.stats["disk_hits"] == 1


def test_legacy_npz_entries_are_ignored(tiny_corpus, tmp_path):
    e = tiny_corpus[0]
    key = OrderingCache._key(e.matrix, e.name, "RCM", 64)
    np.savez(tmp_path / f"{key}.npz", algorithm="RCM",
             perm=np.arange(e.matrix.nrows), symmetric=True, seconds=0.0)
    cache = OrderingCache(path=str(tmp_path))
    result = cache.get(e.matrix, e.name, "RCM")
    assert cache.stats["misses"] == 1
    assert np.array_equal(
        result.perm, OrderingCache().get(e.matrix, e.name, "RCM").perm)


def test_failed_store_leaves_no_entry(tiny_corpus, tmp_path, monkeypatch):
    from repro.harness import runner

    def broken(result):
        raise OSError("disk full")

    monkeypatch.setattr(runner, "encode_entry", broken)
    with pytest.raises(OSError):
        _fill(tiny_corpus[0], tmp_path)
    assert list(tmp_path.iterdir()) == []
