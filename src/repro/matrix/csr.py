"""Compressed sparse row (CSR) matrix container.

This is the canonical computation format of the study (paper §3.1): all
SpMV kernels, matrix features and the performance model consume CSR.
The container enforces the invariants the rest of the library relies on:

* ``rowptr`` is monotone with ``rowptr[0] == 0`` and
  ``rowptr[nrows] == nnz``;
* within each row, column indices are strictly increasing (sorted and
  deduplicated).

Construction therefore goes through :func:`repro.matrix.build.csr_from_coo`,
which sorts and sums duplicates; the constructor itself only verifies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import MatrixFormatError
from ..util.validate import check_index_array, check_sorted_columns, require


@dataclass(frozen=True)
class CSRMatrix:
    """Sparse matrix in CSR form with sorted, unique columns per row.

    Attributes
    ----------
    nrows, ncols:
        Matrix dimensions.
    rowptr:
        ``int64`` array of length ``nrows + 1``; row ``i`` occupies the
        half-open slice ``[rowptr[i], rowptr[i+1])`` of ``colidx`` and
        ``values``.
    colidx:
        ``int64`` array of length nnz with column indices.
    values:
        ``float64`` array of length nnz with entry values.
    """

    nrows: int
    ncols: int
    rowptr: np.ndarray
    colidx: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        require(self.nrows >= 0 and self.ncols >= 0, MatrixFormatError,
                f"negative dimensions {self.nrows} x {self.ncols}")
        rowptr = np.asarray(self.rowptr)
        require(np.issubdtype(rowptr.dtype, np.integer), MatrixFormatError,
                f"rowptr must be integer, got {rowptr.dtype}")
        rowptr = rowptr.astype(np.int64, copy=False)
        require(rowptr.shape == (self.nrows + 1,), MatrixFormatError,
                f"rowptr must have length nrows+1={self.nrows + 1}, "
                f"got {rowptr.shape}")
        require(rowptr[0] == 0, MatrixFormatError, "rowptr[0] must be 0")
        require(bool(np.all(np.diff(rowptr) >= 0)), MatrixFormatError,
                "rowptr must be non-decreasing")
        nnz = int(rowptr[-1])
        colidx = check_index_array("colidx", self.colidx, max(self.ncols, 1))
        require(colidx.shape == (nnz,), MatrixFormatError,
                f"colidx length {colidx.shape} does not match rowptr[-1]={nnz}")
        values = np.asarray(self.values, dtype=np.float64)
        require(values.shape == (nnz,), MatrixFormatError,
                f"values length {values.shape} does not match nnz={nnz}")
        check_sorted_columns(rowptr, colidx)
        object.__setattr__(self, "rowptr", rowptr)
        object.__setattr__(self, "colidx", colidx)
        object.__setattr__(self, "values", values)

    @classmethod
    def _trusted(cls, nrows: int, ncols: int, rowptr: np.ndarray,
                 colidx: np.ndarray, values: np.ndarray) -> "CSRMatrix":
        """Wrap arrays that already satisfy every invariant, unchecked.

        Only for the outputs of internal transforms that preserve the
        invariants of a validated input (the permutations of
        :mod:`repro.matrix.permute`): ``int64`` ``rowptr``/``colidx``,
        ``float64`` ``values``, sorted unique columns per row.  Input
        from outside the library goes through the public constructor.
        """
        a = object.__new__(cls)
        object.__setattr__(a, "nrows", nrows)
        object.__setattr__(a, "ncols", ncols)
        object.__setattr__(a, "rowptr", rowptr)
        object.__setattr__(a, "colidx", colidx)
        object.__setattr__(a, "values", values)
        return a

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(self.rowptr[-1])

    @property
    def shape(self) -> tuple:
        return (self.nrows, self.ncols)

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def row_lengths(self) -> np.ndarray:
        """Number of nonzeros in every row (length ``nrows``)."""
        return np.diff(self.rowptr)

    def row_of_entry(self) -> np.ndarray:
        """Row index of every stored entry, in CSR order (length nnz).

        Memoised on first call (every SpMV kernel and the performance
        model derive it from the same immutable ``rowptr``); the cached
        array is marked read-only so shared use stays safe.
        """
        cached = getattr(self, "_cache_row_of_entry", None)
        if cached is None:
            cached = np.repeat(np.arange(self.nrows, dtype=np.int64),
                               self.row_lengths())
            cached.flags.writeable = False
            object.__setattr__(self, "_cache_row_of_entry", cached)
        return cached

    def __getstate__(self) -> dict:
        """Drop memoised derivatives (``_cache_*``: row-of-entry,
        schedules, reuse statistics, the compiled SpMV operator) so
        pickling a matrix — e.g. for sweep-engine worker fan-out —
        ships only the defining arrays."""
        return {k: v for k, v in self.__dict__.items()
                if not k.startswith("_cache_")}

    def row_slice(self, i: int) -> tuple:
        """Return ``(cols, vals)`` views for row ``i``."""
        lo, hi = int(self.rowptr[i]), int(self.rowptr[i + 1])
        return self.colidx[lo:hi], self.values[lo:hi]

    # ------------------------------------------------------------------
    # conversions and arithmetic used throughout the library
    # ------------------------------------------------------------------
    def to_coo(self):
        """Convert to :class:`~repro.matrix.coo.COOMatrix`."""
        from .coo import COOMatrix

        return COOMatrix(self.nrows, self.ncols, self.row_of_entry(),
                         self.colidx.copy(), self.values.copy())

    def to_dense(self) -> np.ndarray:
        """Materialise as dense (testing/small matrices only)."""
        dense = np.zeros((self.nrows, self.ncols))
        dense[self.row_of_entry(), self.colidx] = self.values
        return dense

    def to_scipy(self):
        """Convert to ``scipy.sparse.csr_matrix`` (used as test oracle)."""
        import scipy.sparse as sp

        return sp.csr_matrix(
            (self.values.copy(), self.colidx.copy(), self.rowptr.copy()),
            shape=self.shape,
        )

    def transpose(self) -> "CSRMatrix":
        """Return the transpose as a new CSR matrix (O(nnz) counting sort)."""
        from .build import csr_from_coo

        coo = self.to_coo()
        return csr_from_coo(coo.transpose())

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Reference sequential SpMV ``y = A @ x`` (vectorised numpy).

        The *measured* kernels live in :mod:`repro.spmv`; this method is
        the semantic definition they are tested against (alongside scipy).
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.ncols,):
            raise MatrixFormatError(
                f"x has shape {x.shape}, expected ({self.ncols},)")
        products = self.values * x[self.colidx]
        y = np.zeros(self.nrows)
        np.add.at(y, self.row_of_entry(), products)
        return y

    def diagonal(self) -> np.ndarray:
        """Return the main diagonal as a dense vector (zeros where absent)."""
        n = min(self.nrows, self.ncols)
        diag = np.zeros(n)
        rows = self.row_of_entry()
        mask = (rows == self.colidx) & (rows < n)
        diag[rows[mask]] = self.values[mask]
        return diag

    def has_explicit_zeros(self) -> bool:
        """True iff any *stored* entry has the value 0.0.

        Matrix Market files (and hand-built matrices) may store zeros
        explicitly; they occupy CSR slots and are processed by the SpMV
        kernels, but they are not nonzeros of the mathematical matrix —
        the structural features (:mod:`repro.features`) ignore them.
        """
        return bool(np.any(self.values == 0.0))

    def drop_explicit_zeros(self) -> "CSRMatrix":
        """Return a copy without explicitly stored zero entries.

        The sorted-columns invariant is preserved (dropping entries
        never reorders the survivors), so this is a cheap O(nnz) mask —
        no COO round trip.  Returns ``self`` unchanged when there is
        nothing to drop.
        """
        keep = self.values != 0.0
        if bool(keep.all()):
            return self
        kept_per_row = np.zeros(self.nrows, dtype=np.int64)
        np.add.at(kept_per_row, self.row_of_entry()[~keep], -1)
        kept_per_row += self.row_lengths()
        rowptr = np.zeros(self.nrows + 1, dtype=np.int64)
        np.cumsum(kept_per_row, out=rowptr[1:])
        return CSRMatrix(self.nrows, self.ncols, rowptr,
                         self.colidx[keep], self.values[keep])

    def pattern_only(self) -> "CSRMatrix":
        """Return a copy whose values are all 1.0 (structure analyses)."""
        return CSRMatrix(self.nrows, self.ncols, self.rowptr.copy(),
                         self.colidx.copy(), np.ones(self.nnz))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSRMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"
