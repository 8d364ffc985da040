"""Coordinate-format (COO) sparse matrix container.

COO is the construction format: generators and the Matrix Market reader
emit (row, col, value) triplets, which are then compressed to CSR for
every computation.  The container is immutable after construction; all
mutation-style operations return new objects so that a corpus of
matrices can be shared safely between experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import MatrixFormatError
from ..util.validate import check_index_array, require


@dataclass(frozen=True)
class COOMatrix:
    """A sparse matrix as parallel (row, col, value) triplet arrays.

    Duplicate (row, col) pairs are permitted in COO form; they are summed
    when converting to CSR, matching the Matrix Market convention.

    Attributes
    ----------
    nrows, ncols:
        Matrix dimensions.
    row, col:
        ``int64`` arrays of length nnz with the coordinates of each entry.
    values:
        ``float64`` array of length nnz with the entry values.
    """

    nrows: int
    ncols: int
    row: np.ndarray
    col: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        require(self.nrows >= 0 and self.ncols >= 0, MatrixFormatError,
                f"negative dimensions {self.nrows} x {self.ncols}")
        row = check_index_array("row", self.row, max(self.nrows, 1))
        col = check_index_array("col", self.col, max(self.ncols, 1))
        values = np.asarray(self.values, dtype=np.float64)
        require(row.shape == col.shape == values.shape, MatrixFormatError,
                "row, col and values must have identical shapes")
        require(row.ndim == 1, MatrixFormatError, "triplet arrays must be 1-D")
        if self.nrows == 0 or self.ncols == 0:
            require(row.size == 0, MatrixFormatError,
                    "empty matrix cannot hold nonzeros")
        # dataclass is frozen; bypass to store normalised arrays.
        object.__setattr__(self, "row", row)
        object.__setattr__(self, "col", col)
        object.__setattr__(self, "values", values)

    @property
    def nnz(self) -> int:
        """Number of stored entries (duplicates counted individually)."""
        return int(self.row.size)

    @property
    def shape(self) -> tuple:
        return (self.nrows, self.ncols)

    def transpose(self) -> "COOMatrix":
        """Return the transpose (swap row and column coordinates)."""
        return COOMatrix(self.ncols, self.nrows, self.col.copy(),
                         self.row.copy(), self.values.copy())

    def to_dense(self) -> np.ndarray:
        """Materialise as a dense array (testing/small matrices only)."""
        dense = np.zeros((self.nrows, self.ncols))
        np.add.at(dense, (self.row, self.col), self.values)
        return dense

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"COOMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"
