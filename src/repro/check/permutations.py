"""Permutation invariants for every registered reordering.

For each ordering of the registry (the paper's six plus the survey
extras) applied to each corpus matrix, this suite asserts:

* **bijection** — the permutation is a valid bijection of row indices;
* **gather equivalence** — the permuted matrix equals the dense oracle
  gather: ``A[perm][:, perm]`` for symmetric (PAPᵀ) orderings,
  ``A[perm, :]`` for row-only (PA) ones.  This is direction-sensitive,
  unlike a pure round trip (applying the *inverse* of a swapped
  permutation still restores the original), so a swapped new-to-old /
  old-to-new convention anywhere in the permutation plumbing is caught
  here;
* **canonical form** — the permuted matrix passes the public
  :class:`~repro.matrix.csr.CSRMatrix` checks (monotone ``rowptr``,
  sorted unique columns per row), which its unchecked internal
  constructor skipped;
* **conservation** — nnz and the value multiset are preserved;
* **symmetry preservation** — a PAPᵀ ordering of a pattern-symmetric
  matrix yields a pattern-symmetric matrix;
* **round trip** — applying the inverse permutation restores the
  original matrix bit-for-bit, and the structural features recomputed
  on the round-tripped matrix equal the originals;
* **determinism** — recomputing with the same seed yields the same
  permutation (the cross-process half lives in
  ``tests/reorder/test_determinism.py``).
"""

from __future__ import annotations

import numpy as np

from .. import features
from ..errors import MatrixFormatError
from ..matrix import permute as permute_mod
from ..matrix.csr import CSRMatrix
from ..matrix.symmetry import is_pattern_symmetric
from ..obs.trace import span
from ..reorder import registry
from .findings import CheckReport

SUITE = "permutations"


def _orderings() -> tuple:
    return registry.ALL_ORDERINGS + registry.EXTRA_ORDERINGS


def _is_canonical(b) -> bool:
    """Whether ``b`` passes the public constructor's checks."""
    try:
        CSRMatrix(b.nrows, b.ncols, b.rowptr, b.colidx, b.values)
    except MatrixFormatError:
        return False
    return True


def check_permutations(matrices, orderings=None, nparts: int = 4,
                       seed: int = 0) -> CheckReport:
    """Assert the permutation invariants for every ordering × matrix."""
    report = CheckReport(suites=[SUITE])
    names = tuple(orderings) if orderings is not None else _orderings()
    with span("check.permutations"):
        for mat_name, a in matrices:
            if not a.is_square:
                continue  # reorderings are defined on square matrices
            dense = a.to_dense()
            sym_before = a.is_square and is_pattern_symmetric(a)
            for ordering in names:
                subject = f"matrix={mat_name} ordering={ordering}"
                try:
                    result = registry.compute_ordering(
                        a, ordering, nparts=nparts, seed=seed)
                    b = result.apply(a)
                except Exception as exc:  # noqa: BLE001 - report
                    report.case()
                    report.fail(SUITE, "ordering-crash", subject,
                                f"{type(exc).__name__}: {exc}")
                    continue
                perm = result.perm

                counts = np.bincount(perm, minlength=a.nrows)
                report.check(
                    perm.size == a.nrows and bool(np.all(counts == 1)),
                    SUITE, "permutation-is-bijection", subject,
                    f"perm of size {perm.size} over {a.nrows} rows is "
                    "not a bijection")

                if result.symmetric:
                    want = dense[perm][:, perm]
                else:
                    want = dense[perm, :]
                report.check(
                    bool(np.array_equal(b.to_dense(), want)),
                    SUITE, "permuted-matrix-matches-dense-gather",
                    subject,
                    "applied permutation disagrees with the dense "
                    f"{'PAPt' if result.symmetric else 'PA'} gather "
                    "oracle (swapped direction or dropped entries)")

                report.check(
                    _is_canonical(b), SUITE, "permuted-matrix-is-canonical",
                    subject,
                    "the permuted matrix breaks the CSR invariants "
                    "(rowptr monotone, sorted unique columns per row)")

                report.check(
                    b.nnz == a.nnz and bool(np.array_equal(
                        np.sort(b.values), np.sort(a.values))),
                    SUITE, "nnz-and-values-conserved", subject,
                    f"nnz {a.nnz} -> {b.nnz}, or the value multiset "
                    "changed")

                if sym_before and result.symmetric:
                    report.check(
                        is_pattern_symmetric(b), SUITE,
                        "symmetry-preserved", subject,
                        "PAPt ordering broke pattern symmetry")

                if result.symmetric:
                    inv = permute_mod.invert_permutation(perm)
                    back = permute_mod.permute_symmetric(b, inv)
                    report.check(
                        bool(np.array_equal(back.to_dense(), dense)),
                        SUITE, "inverse-round-trip-restores-original",
                        subject,
                        "PAPt followed by its inverse does not restore "
                        "the matrix")
                    report.check(
                        features.bandwidth(back) == features.bandwidth(a)
                        and features.profile(back) == features.profile(a),
                        SUITE, "features-stable-after-round-trip",
                        subject,
                        "features recomputed after the inverse round "
                        "trip differ from the originals")

                again = registry.compute_ordering(
                    a, ordering, nparts=nparts, seed=seed)
                report.check(
                    bool(np.array_equal(again.perm, perm)), SUITE,
                    "ordering-deterministic-for-seed", subject,
                    "two in-process computations with the same seed "
                    "produced different permutations")
    return report
