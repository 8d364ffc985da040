"""On-disk CSR format: writer atomicity, verification, memmap attach."""

import json
import os

import numpy as np
import pytest

from repro.errors import StorageError
from repro.matrix.csr import CSRMatrix
from repro.storage import format as fmt


@pytest.fixture(autouse=True)
def _fresh_attach_memo():
    fmt.detach_all()
    yield
    fmt.detach_all()


def _small():
    # 3x4, nnz 5, a row with zero entries included
    return CSRMatrix(nrows=3, ncols=4,
                     rowptr=np.array([0, 2, 2, 5]),
                     colidx=np.array([0, 3, 1, 2, 3]),
                     values=np.array([1.0, -2.0, 3.5, 0.25, 9.0]))


def _assert_equal(a, b):
    assert (a.nrows, a.ncols) == (b.nrows, b.ncols)
    np.testing.assert_array_equal(a.rowptr, b.rowptr)
    np.testing.assert_array_equal(a.colidx, b.colidx)
    np.testing.assert_array_equal(a.values, b.values)


def test_roundtrip_bit_exact(tmp_path):
    a = _small()
    path = str(tmp_path / "m")
    sig = fmt.write_matrix(path, a, meta={"name": "small"})
    b = fmt.open_matrix(path, verify="crc")
    _assert_equal(a, b)
    assert sig == fmt.matrix_signature(path)
    assert not b.values.flags.writeable


def test_chunked_write_matches_oneshot(tmp_path):
    """Appending row by row produces the same bytes — and therefore the
    same content address — as a single-chunk write."""
    a = _small()
    sig1 = fmt.write_matrix(str(tmp_path / "one"), a)
    with fmt.MatrixWriter(str(tmp_path / "many"), a.nrows, a.ncols) as w:
        for r in range(a.nrows):
            s, e = int(a.rowptr[r]), int(a.rowptr[r + 1])
            w.append_chunk([e - s], a.colidx[s:e], a.values[s:e])
        sig2 = w.commit()
    assert sig1 == sig2
    one = (tmp_path / "one" / "values.bin").read_bytes()
    many = (tmp_path / "many" / "values.bin").read_bytes()
    assert one == many


def test_content_address_ignores_meta(tmp_path):
    a = _small()
    sig1 = fmt.write_matrix(str(tmp_path / "m1"), a, meta={"x": 1})
    sig2 = fmt.write_matrix(str(tmp_path / "m2"), a, meta={"x": 2})
    assert sig1 == sig2
    a.values[0] += 1.0
    sig3 = fmt.write_matrix(str(tmp_path / "m3"), a)
    assert sig3 != sig1


def test_empty_matrix(tmp_path):
    a = CSRMatrix(nrows=2, ncols=2, rowptr=np.array([0, 0, 0]),
                  colidx=np.array([], dtype=np.int64),
                  values=np.array([], dtype=np.float64))
    path = str(tmp_path / "empty")
    fmt.write_matrix(path, a)
    b = fmt.open_matrix(path, verify="crc")
    _assert_equal(a, b)


@pytest.mark.parametrize("bad", [
    dict(row_lengths=[-1], colidx=[], values=[]),
    dict(row_lengths=[2], colidx=[0], values=[1.0]),          # shape
    dict(row_lengths=[1], colidx=[9], values=[1.0]),          # bounds
    dict(row_lengths=[2], colidx=[1, 1], values=[1.0, 2.0]),  # not increasing
])
def test_append_chunk_rejects_invalid(tmp_path, bad):
    with pytest.raises(StorageError):
        with fmt.MatrixWriter(str(tmp_path / "m"), 1, 4) as w:
            w.append_chunk(**bad)
    assert not os.path.exists(tmp_path / "m")


def test_commit_requires_all_rows(tmp_path):
    w = fmt.MatrixWriter(str(tmp_path / "m"), 3, 3)
    with w:
        w.append_chunk([1], [0], [1.0])
        with pytest.raises(StorageError, match="rows written"):
            w.commit()
        # complete the matrix so __exit__'s implicit commit succeeds
        w.append_chunk([1, 1], [1, 2], [1.0, 1.0])


def test_abort_leaves_nothing(tmp_path):
    path = str(tmp_path / "m")
    with pytest.raises(RuntimeError):
        with fmt.MatrixWriter(path, 2, 2) as w:
            w.append_chunk([1], [0], [1.0])
            raise RuntimeError("killed mid-write")
    assert list(tmp_path.iterdir()) == []  # neither final nor tmp dir


def test_header_is_the_commit_marker(tmp_path):
    """A directory without header.json is torn by definition."""
    a = _small()
    path = str(tmp_path / "m")
    fmt.write_matrix(path, a)
    os.remove(os.path.join(path, "header.json"))
    with pytest.raises(StorageError, match="torn or missing"):
        fmt.read_header(path)
    assert fmt.verify_matrix(path) != []


def test_verify_levels(tmp_path):
    a = _small()
    path = str(tmp_path / "m")
    fmt.write_matrix(path, a)
    assert fmt.verify_matrix(path, level="crc") == []

    # flip one byte: size still passes, crc fails
    vpath = os.path.join(path, "values.bin")
    with open(vpath, "r+b") as fh:
        fh.seek(3)
        b = fh.read(1)
        fh.seek(3)
        fh.write(bytes([b[0] ^ 0x40]))
    assert fmt.verify_matrix(path, level="size") == []
    problems = fmt.verify_matrix(path, level="crc")
    assert problems and "CRC" in problems[0]
    with pytest.raises(StorageError):
        fmt.open_matrix(path, verify="crc")

    # truncate: even the size level fails
    with open(vpath, "r+b") as fh:
        fh.truncate(8)
    assert fmt.verify_matrix(path, level="size") != []
    with pytest.raises(StorageError):
        fmt.open_matrix(path)


def test_verify_rejects_foreign_headers(tmp_path):
    path = tmp_path / "m"
    path.mkdir()
    (path / "header.json").write_text(json.dumps(
        {"format": "not-repro", "version": 1}))
    assert fmt.verify_matrix(str(path)) != []
    (path / "header.json").write_text(json.dumps(
        {"format": fmt.FORMAT_NAME, "version": fmt.FORMAT_VERSION + 1}))
    with pytest.raises(StorageError, match="version"):
        fmt.read_header(str(path))


def test_attach_memo(tmp_path):
    a = _small()
    path = str(tmp_path / "m")
    fmt.write_matrix(path, a)
    m1 = fmt.attach_matrix(path)
    m2 = fmt.attach_matrix(path)
    assert m1 is m2
    assert fmt.attached_count() == 1
    stats = fmt.attach_cache_stats()
    assert stats["hits"] == 1 and stats["misses"] == 1
    # mapped arrays are page cache, not resident heap
    assert stats["size_bytes"] == 0
    assert stats["mapped_bytes"] == (m1.rowptr.nbytes + m1.colidx.nbytes
                                     + m1.values.nbytes)
    fmt.detach_all()
    assert fmt.attached_count() == 0


def _drop_colidx_crc(h):
    del h["crc"]["colidx"]


def _crc_as_list(h):
    h["crc"] = list(h["crc"].values())


def _drop_crc(h):
    del h["crc"]


def _drop_dtypes(h):
    del h["dtypes"]


@pytest.mark.parametrize("corrupt", [_drop_colidx_crc, _crc_as_list,
                                     _drop_crc, _drop_dtypes])
def test_malformed_crc_or_dtypes_header_is_a_storage_error(tmp_path,
                                                           corrupt):
    path = str(tmp_path / "m")
    fmt.write_matrix(path, _small())
    hpath = os.path.join(path, "header.json")
    with open(hpath) as fh:
        header = json.load(fh)
    corrupt(header)
    with open(hpath, "w") as fh:
        json.dump(header, fh)
    with pytest.raises(StorageError):
        fmt.read_header(path)
    with pytest.raises(StorageError):
        fmt.open_matrix(path, verify="crc")
    with pytest.raises(StorageError):
        fmt.matrix_signature(path)
    assert fmt.verify_matrix(path, level="crc") != []
