"""Matrix Market (.mtx) reader and writer.

The SuiteSparse collection and the paper's artifact distribute matrices
in Matrix Market exchange format, so the library speaks it natively.
Supported: ``matrix coordinate real|integer|pattern`` with
``general|symmetric|skew-symmetric`` storage.  Complex matrices are
rejected — the paper's corpus explicitly excludes them (§4.1).

Symmetric storage is expanded on read exactly as the paper describes:
every off-diagonal entry contributes a nonzero in both triangles.
"""

from __future__ import annotations

import io
import os
from pathlib import Path

import numpy as np

from ..errors import MatrixFormatError
from .build import coo_from_arrays, csr_from_coo
from .csr import CSRMatrix

_VALID_FIELDS = {"real", "integer", "pattern"}
_VALID_SYMMETRIES = {"general", "symmetric", "skew-symmetric"}


def read_matrix_market(source) -> CSRMatrix:
    """Read a Matrix Market file (path, str content, or text file object).

    Returns the matrix in CSR form with symmetric storage expanded.
    """
    if isinstance(source, (str, Path)) and "\n" not in str(source):
        with open(source, "rt") as f:
            return _read(f)
    if isinstance(source, str):
        return _read(io.StringIO(source))
    return _read(source)


def _read(f) -> CSRMatrix:
    header = f.readline().strip().split()
    if len(header) != 5 or header[0] != "%%MatrixMarket":
        raise MatrixFormatError(f"bad Matrix Market banner: {header}")
    _, obj, fmt, field, symmetry = (h.lower() for h in header)
    if obj != "matrix" or fmt != "coordinate":
        raise MatrixFormatError(
            f"only 'matrix coordinate' supported, got '{obj} {fmt}'")
    if field not in _VALID_FIELDS:
        raise MatrixFormatError(
            f"unsupported field '{field}' (complex matrices are excluded)")
    if symmetry not in _VALID_SYMMETRIES:
        raise MatrixFormatError(f"unsupported symmetry '{symmetry}'")

    line = f.readline()
    while line.startswith("%"):
        line = f.readline()
    dims = line.split()
    try:
        nrows, ncols, nnz = (int(d) for d in dims)
    except ValueError:
        raise MatrixFormatError(f"bad size line: {line!r}") from None
    # refuse a size line whose CSR row pointer alone, 8 * (nrows + 1)
    # bytes, could not fit in physical memory
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if 8 * (nrows + 1) > memory:
        raise MatrixFormatError(
            f"{nrows} rows need a {8 * (nrows + 1)}-byte row pointer, "
            f"more than the {memory} bytes of physical memory")

    ncols_per_line = 2 if field == "pattern" else 3
    try:
        data = (np.loadtxt(f, ndmin=2) if nnz
                else np.empty((0, ncols_per_line)))
    except ValueError as exc:
        raise MatrixFormatError(f"malformed entry line: {exc}") from None
    if data.shape[0] != nnz:
        raise MatrixFormatError(
            f"expected {nnz} entries, file holds {data.shape[0]}")
    if nnz and data.shape[1] != ncols_per_line:
        raise MatrixFormatError(
            f"expected {ncols_per_line} columns per entry for field "
            f"'{field}', got {data.shape[1]}")
    if not np.isfinite(data).all():
        raise MatrixFormatError("entries must be finite (no nan or inf)")
    if not (data[:, :2] == np.floor(data[:, :2])).all():
        raise MatrixFormatError("row and column indices must be integers")
    row = data[:, 0].astype(np.int64) - 1  # 1-based on disk
    col = data[:, 1].astype(np.int64) - 1
    vals = np.ones(nnz) if field == "pattern" else data[:, 2].astype(np.float64)

    if symmetry in ("symmetric", "skew-symmetric"):
        off = row != col
        sign = -1.0 if symmetry == "skew-symmetric" else 1.0
        row = np.concatenate([row, col[off]])
        col = np.concatenate([col, data[:, 0].astype(np.int64)[off] - 1])
        vals = np.concatenate([vals, sign * vals[off]])

    return csr_from_coo(coo_from_arrays(nrows, ncols, row, col, vals))


def write_matrix_market(a: CSRMatrix, target) -> None:
    """Write ``a`` in 'matrix coordinate real general' format.

    ``target`` may be a path or a writable text file object.  Symmetric
    compression is not applied on write — general storage round-trips
    every matrix exactly, which is what the test suite relies on.
    """
    if isinstance(target, (str, Path)):
        with open(target, "wt") as f:
            _write(a, f)
    else:
        _write(a, target)


def _write(a: CSRMatrix, f) -> None:
    f.write("%%MatrixMarket matrix coordinate real general\n")
    f.write(f"% written by repro\n{a.nrows} {a.ncols} {a.nnz}\n")
    rows = a.row_of_entry()
    for r, c, v in zip(rows, a.colidx, a.values):
        f.write(f"{r + 1} {c + 1} {v:.17g}\n")
