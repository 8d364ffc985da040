"""Chunked on-disk CSR format with memmap attach.

A stored matrix is a directory of four files::

    <dir>/
      header.json   format name, version, dims, dtypes, per-array CRCs
      rowptr.bin    int64,   little-endian, length nrows + 1
      colidx.bin    int64,   little-endian, length nnz
      values.bin    float64, little-endian, length nnz

The layout is the flat ``[rowptr | colidx | values]`` triple of
:class:`~repro.matrix.csr.CSRMatrix` — a sweep worker that attaches
the directory gets read-only ``np.memmap`` views with zero copies,
backed by reclaimable page cache, so the mapping survives worker death
and costs no resident memory beyond the pages actually touched.

Durability rules:

* **Writes are atomic at directory granularity.**  :class:`MatrixWriter`
  streams chunks into ``<dir>.tmp-<pid>``, writes ``header.json``
  *last* (it is the commit marker), then ``os.rename``\\ s the whole
  directory into place.  A writer killed at any point leaves either no
  final directory or a complete one — never a torn matrix under the
  final name.
* **Reads verify before mapping.**  :func:`open_matrix` checks the
  header and array byte-lengths by default (``verify="size"``), and
  can stream-recompute the CRC32 of every array (``verify="crc"``) to
  detect bit rot or a copy that tore mid-file.
* **Identity is content-addressed.**  :func:`header_signature` hashes
  the header's *structural* fields (format, version, dims, nnz,
  dtypes, CRCs) — not ``meta`` — so two writes of the same arrays get
  the same address no matter when or where they ran.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import zlib
from dataclasses import dataclass, field

import numpy as np

from ..errors import StorageError
from ..obs.cachestats import cache_stats
from ..obs.metrics import REGISTRY
from ..util.validate import require

__all__ = [
    "FORMAT_NAME", "FORMAT_VERSION", "CHUNK_ROWS", "ARRAY_FILES",
    "MatrixWriter", "write_matrix", "open_matrix", "verify_matrix",
    "read_header", "header_signature", "matrix_signature",
    "attach_matrix", "detach_all", "attached_count", "attach_cache_stats",
]

FORMAT_NAME = "repro-csr"
FORMAT_VERSION = 1

#: rows per streamed chunk.  Fixed (not tunable) so that chunked and
#: one-shot writes of the same matrix are byte-identical and hash to
#: the same content address.
CHUNK_ROWS = 65536

#: array file names and their fixed on-disk dtypes (little-endian).
ARRAY_FILES = (("rowptr", "<i8"), ("colidx", "<i8"), ("values", "<f8"))

_HEADER = "header.json"
_IO_BLOCK = 1 << 20


def _crc_ok(expected: int, actual: int) -> bool:
    """Compare a header CRC against a recomputed one.

    Isolated so the mutation-smoke suite can stub it out and prove the
    check suite notices a verifier that accepts stale checksums.
    """
    return int(expected) == int(actual)


# ----------------------------------------------------------------------
# writing
# ----------------------------------------------------------------------
@dataclass
class MatrixWriter:
    """Stream CSR rows to disk without materialising the full arrays.

    Usage::

        with MatrixWriter(path, nrows, ncols, meta={...}) as w:
            for row_lengths, colidx, values in chunks:
                w.append_chunk(row_lengths, colidx, values)
        # exiting the ``with`` block commits atomically

    ``append_chunk`` takes the per-row nonzero counts of the next batch
    of rows plus their concatenated (sorted, in-range) column indices
    and values; ``rowptr`` is accumulated incrementally.  On any
    exception the temporary directory is removed and nothing appears
    under the final ``path``.
    """

    path: str
    nrows: int
    ncols: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        require(self.nrows >= 0 and self.ncols >= 0, StorageError,
                f"negative dimensions {self.nrows} x {self.ncols}")
        self._tmp = f"{self.path}.tmp-{os.getpid()}"
        self._rows_done = 0
        self._nnz = 0
        self._crc = {name: 0 for name, _ in ARRAY_FILES}
        self._files = {}
        self._committed = False

    def __enter__(self) -> "MatrixWriter":
        if os.path.exists(self._tmp):
            shutil.rmtree(self._tmp)
        os.makedirs(self._tmp)
        for name, _ in ARRAY_FILES:
            self._files[name] = open(
                os.path.join(self._tmp, f"{name}.bin"), "wb")
        # rowptr[0] == 0 is written up front; chunks append the rest.
        self._write_block("rowptr", np.zeros(1, dtype=np.int64))
        return self

    def _write_block(self, name: str, arr: np.ndarray) -> None:
        """Append one little-endian block to an array file, rolling its
        CRC forward.  Every byte that reaches disk goes through here."""
        dtype = dict(ARRAY_FILES)[name]
        data = np.ascontiguousarray(arr, dtype=dtype).tobytes()
        self._crc[name] = zlib.crc32(data, self._crc[name])
        self._files[name].write(data)
        REGISTRY.counter("storage.bytes_written").inc(len(data))

    def append_chunk(self, row_lengths, colidx, values) -> None:
        """Append a batch of consecutive rows.

        ``row_lengths[i]`` is the nonzero count of row
        ``rows_done + i``; ``colidx``/``values`` hold the entries of
        all batch rows concatenated in row order, columns sorted and
        strictly increasing within each row.
        """
        row_lengths = np.asarray(row_lengths, dtype=np.int64)
        colidx = np.asarray(colidx)
        values = np.asarray(values, dtype=np.float64)
        total = int(row_lengths.sum())
        require(bool(np.all(row_lengths >= 0)), StorageError,
                "row_lengths must be non-negative")
        require(colidx.shape == (total,) and values.shape == (total,),
                StorageError,
                f"chunk arrays must match sum(row_lengths)={total}, got "
                f"colidx {colidx.shape}, values {values.shape}")
        require(self._rows_done + row_lengths.size <= self.nrows,
                StorageError,
                f"chunk overruns nrows={self.nrows}")
        if total:
            lo, hi = int(colidx.min()), int(colidx.max())
            require(lo >= 0 and hi < self.ncols, StorageError,
                    f"colidx entries must lie in [0, {self.ncols}), "
                    f"got range [{lo}, {hi}]")
            # strictly increasing within each row (row starts exempt)
            starts = np.zeros(total, dtype=bool)
            offs = np.cumsum(row_lengths)[:-1]
            starts[offs[offs < total]] = True
            starts[0] = True
            ok = (colidx[1:] > colidx[:-1]) | starts[1:]
            require(bool(np.all(ok)), StorageError,
                    "columns must be strictly increasing within rows")
        rowptr_tail = np.cumsum(row_lengths) + self._nnz
        self._write_block("rowptr", rowptr_tail)
        self._write_block("colidx", colidx)
        self._write_block("values", values)
        self._rows_done += int(row_lengths.size)
        self._nnz += total

    def header(self) -> dict:
        return {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "nrows": int(self.nrows),
            "ncols": int(self.ncols),
            "nnz": int(self._nnz),
            "dtypes": {name: dt for name, dt in ARRAY_FILES},
            "crc": {name: int(self._crc[name]) for name, _ in ARRAY_FILES},
            "meta": dict(self.meta),
        }

    def commit(self) -> str:
        """Flush arrays, write the header (commit marker), rename into
        place.  Returns the matrix's content address."""
        require(self._rows_done == self.nrows, StorageError,
                f"commit with {self._rows_done}/{self.nrows} rows written")
        for fh in self._files.values():
            fh.close()
        self._files = {}
        header = self.header()
        with open(os.path.join(self._tmp, _HEADER), "w") as fh:
            json.dump(header, fh, indent=1, sort_keys=True)
            fh.write("\n")
        if os.path.exists(self.path):
            shutil.rmtree(self.path)
        os.rename(self._tmp, self.path)
        self._committed = True
        return header_signature(header)

    def abort(self) -> None:
        for fh in self._files.values():
            fh.close()
        self._files = {}
        if os.path.isdir(self._tmp):
            shutil.rmtree(self._tmp)

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            if not self._committed:
                self.commit()
        else:
            self.abort()


def write_matrix(path: str, a, meta: dict | None = None) -> str:
    """Store an in-RAM :class:`~repro.matrix.csr.CSRMatrix` at ``path``
    (chunked, so peak extra memory is one chunk).  Returns the content
    address."""
    with MatrixWriter(path, a.nrows, a.ncols, meta=dict(meta or {})) as w:
        for lo in range(0, a.nrows, CHUNK_ROWS):
            hi = min(lo + CHUNK_ROWS, a.nrows)
            s, e = int(a.rowptr[lo]), int(a.rowptr[hi])
            w.append_chunk(np.diff(a.rowptr[lo:hi + 1]),
                           a.colidx[s:e], a.values[s:e])
        return w.commit()


# ----------------------------------------------------------------------
# reading / verification
# ----------------------------------------------------------------------
def read_header(path: str) -> dict:
    """Parse and structurally validate ``header.json`` under ``path``."""
    hpath = os.path.join(path, _HEADER)
    try:
        with open(hpath) as fh:
            header = json.load(fh)
    except FileNotFoundError:
        raise StorageError(f"{path}: no {_HEADER} (torn or missing snapshot)")
    except (OSError, ValueError) as exc:
        raise StorageError(f"{hpath}: unreadable header ({exc})")
    if header.get("format") != FORMAT_NAME:
        raise StorageError(
            f"{path}: format {header.get('format')!r} != {FORMAT_NAME!r}")
    if header.get("version") != FORMAT_VERSION:
        raise StorageError(
            f"{path}: version {header.get('version')!r} unsupported "
            f"(this code reads version {FORMAT_VERSION})")
    for key in ("nrows", "ncols", "nnz"):
        if not isinstance(header.get(key), int) or header[key] < 0:
            raise StorageError(f"{path}: header field {key!r} invalid")
    crc = header.get("crc")
    if not isinstance(crc, dict) or not all(
            type(crc.get(name)) is int for name, _ in ARRAY_FILES):
        raise StorageError(
            f"{path}: header field 'crc' must map each of "
            f"{', '.join(name for name, _ in ARRAY_FILES)} to an integer")
    if "dtypes" not in header:
        raise StorageError(f"{path}: header field 'dtypes' missing")
    return header


def header_signature(header: dict) -> str:
    """Content address of a stored matrix: a hash over the structural
    header fields.  ``meta`` is excluded on purpose — the address must
    depend only on the bytes of the three arrays and their shape."""
    core = {k: header[k]
            for k in ("format", "version", "nrows", "ncols", "nnz",
                      "dtypes", "crc")}
    blob = json.dumps(core, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def matrix_signature(path: str) -> str:
    """Content address of the matrix stored at ``path``."""
    return header_signature(read_header(path))


def _expected_lengths(header: dict) -> dict:
    return {"rowptr": header["nrows"] + 1,
            "colidx": header["nnz"],
            "values": header["nnz"]}


def _file_crc(fpath: str) -> int:
    crc = 0
    with open(fpath, "rb") as fh:
        while True:
            block = fh.read(_IO_BLOCK)
            if not block:
                return crc
            crc = zlib.crc32(block, crc)


def verify_matrix(path: str, level: str = "size") -> list:
    """Check the stored matrix at ``path``; return a list of problems.

    ``level`` escalates: ``"none"`` only parses the header, ``"size"``
    (default) additionally compares array byte-lengths against the
    header, ``"crc"`` streams every array back through CRC32.
    """
    require(level in ("none", "size", "crc"), StorageError,
            f"unknown verify level {level!r}")
    try:
        header = read_header(path)
    except StorageError as exc:
        return [str(exc)]
    problems = []
    if level == "none":
        return problems
    lengths = _expected_lengths(header)
    for name, dtype in ARRAY_FILES:
        fpath = os.path.join(path, f"{name}.bin")
        expected = lengths[name] * np.dtype(dtype).itemsize
        try:
            actual = os.path.getsize(fpath)
        except OSError:
            problems.append(f"{path}: missing array file {name}.bin")
            continue
        if actual != expected:
            problems.append(
                f"{path}: {name}.bin is {actual} bytes, header implies "
                f"{expected} (rowptr/colidx/values out of sync or torn)")
            continue
        if level == "crc":
            crc = _file_crc(fpath)
            if not _crc_ok(header["crc"][name], crc):
                REGISTRY.counter("storage.crc_failures").inc()
                problems.append(
                    f"{path}: {name}.bin CRC {crc} != header "
                    f"{header['crc'][name]} (corrupt or torn write)")
    return problems


def _mapped(fpath: str, dtype: str, length: int) -> np.ndarray:
    if length == 0:
        return np.empty(0, dtype=dtype)
    arr = np.memmap(fpath, dtype=dtype, mode="r", shape=(length,))
    return arr


def open_matrix(path: str, verify: str = "size"):
    """Map the stored matrix at ``path`` as a read-only
    :class:`~repro.matrix.csr.CSRMatrix` (zero-copy ``np.memmap``
    arrays).  Raises :class:`StorageError` when verification fails."""
    from ..matrix.csr import CSRMatrix

    problems = verify_matrix(path, level=verify)
    if problems:
        raise StorageError("; ".join(problems))
    header = read_header(path)
    lengths = _expected_lengths(header)
    arrays = {}
    for name, dtype in ARRAY_FILES:
        arrays[name] = _mapped(os.path.join(path, f"{name}.bin"),
                               dtype, lengths[name])
    a = CSRMatrix(nrows=header["nrows"], ncols=header["ncols"],
                  rowptr=arrays["rowptr"], colidx=arrays["colidx"],
                  values=arrays["values"])
    REGISTRY.counter("storage.bytes_read").inc(
        sum(arr.nbytes for arr in arrays.values()))
    return a


# ----------------------------------------------------------------------
# per-process attach memo
# ----------------------------------------------------------------------
#: path -> CSRMatrix; one mapping per matrix per process regardless of
#: how many crash-retry rounds resubmit it.
_ATTACHED: dict = {}
_ATTACH_HITS = 0
_ATTACH_MISSES = 0


def attach_matrix(path: str, verify: str = "size"):
    """Memoised :func:`open_matrix`: sweep workers attach each stored
    matrix at most once per process."""
    global _ATTACH_HITS, _ATTACH_MISSES
    key = os.path.abspath(path)
    cached = _ATTACHED.get(key)
    if cached is not None:
        _ATTACH_HITS += 1
        return cached
    _ATTACH_MISSES += 1
    a = open_matrix(path, verify=verify)
    _ATTACHED[key] = a
    return a


def attached_count() -> int:
    """Number of stored matrices this process currently has mapped."""
    return len(_ATTACHED)


def detach_all() -> None:
    """Drop the attachment memo (test hygiene only).  The mappings die
    when the arrays are garbage-collected or the process exits."""
    global _ATTACH_HITS, _ATTACH_MISSES
    _ATTACHED.clear()
    _ATTACH_HITS = 0
    _ATTACH_MISSES = 0


def attach_cache_stats() -> dict:
    """Stats for the attach memo in the unified cache schema.

    Mapped matrices are disk-backed page cache, not private heap, so
    their bytes are reported under ``mapped_bytes`` and ``size_bytes``
    stays 0 (see :mod:`repro.obs.cachestats`).
    """
    mapped = sum(a.rowptr.nbytes + a.colidx.nbytes + a.values.nbytes
                 for a in _ATTACHED.values())
    return cache_stats(hits=_ATTACH_HITS, misses=_ATTACH_MISSES,
                       size_bytes=0, mapped_bytes=mapped,
                       entries=len(_ATTACHED))
