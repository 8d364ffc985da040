"""Differential checks of the SpMV-family kernels against dense oracles.

Every registered kernel (:data:`repro.spmv.registry.KERNELS`: 1d, 2d)
is run on every matrix of the check corpora, over several thread
counts — deliberately including counts larger than the row count —
with a seeded random ``x`` vector, and compared against the dense
NumPy oracle ``A @ x``.  A crash is a finding, not an abort: the suite
keeps going and reports every broken cell.

The workload kernels ride the same suite:

* :func:`repro.spmv.products.spgemm` (A·A) against the dense
  ``A @ A`` oracle on square matrices;
* :func:`repro.spmv.products.spmm` (multi-vector) against ``A @ X``
  for a small dense block, across every schedule kind;
* :func:`repro.solvers.iterative.cg` / ``jacobi`` against
  ``np.linalg.solve`` on a diagonally dominant SPD system built from
  each matrix's structure, plus internal-consistency invariants (the
  reported final residual matches a recomputed ``||b - A·x||``, and
  the iterate history ends at the returned solution).  Each system is
  solved once, by the next (solver, kernel) pair in turn: every pair
  is covered across the corpus at a quarter of the SpMV launches.

The dispatch is called through each module's namespace
(``kernels.spmv``, ``products.spgemm``, ``iterative.cg``), so mutation
faults patched into those modules are observed by this suite.
"""

from __future__ import annotations

import numpy as np

from ..errors import ReproError
from ..matrix.build import csr_from_dense
from ..obs.trace import span
from ..solvers import iterative
from ..spmv import kernels, products
from ..spmv.registry import KERNELS
from .findings import CheckReport

SUITE = "kernels"

#: size caps keeping the dense oracles (O(n^2) memory, O(n^3) solve)
#: affordable on the full check corpus
SOLVER_MAX_ROWS = 300
SPGEMM_MAX_ROWS = 300
SPMM_MAX_ROWS = 600

#: dense block width for the SpMM differential check
SPMM_VECTORS = 3

#: (solver, kernel) pairs the solver oracle takes in turn, one a matrix
SOLVER_PAIRS = (("cg", "1d"), ("cg", "2d"), ("jacobi", "1d"),
                ("jacobi", "2d"))


def check_kernels(matrices, nthreads=(1, 2, 3, 8),
                  seed: int = 0) -> CheckReport:
    """Cross-validate every kernel × matrix × thread count."""
    rng = np.random.default_rng(seed)
    report = CheckReport(suites=[SUITE])
    with span("check.kernels"):
        for i, (name, a) in enumerate(matrices):
            x = rng.standard_normal(a.ncols)
            oracle = a.to_dense() @ x
            for kind in KERNELS:
                for nt in nthreads:
                    subject = (f"matrix={name} kernel={kind} "
                               f"nthreads={nt}")
                    try:
                        y = kernels.spmv(a, x, kind, nt)
                    except Exception as exc:  # noqa: BLE001 - report
                        report.case()
                        report.fail(SUITE, "kernel-crash", subject,
                                    f"{type(exc).__name__}: {exc}")
                        continue
                    err = float(np.max(np.abs(y - oracle), initial=0.0))
                    report.check(
                        y.shape == oracle.shape
                        and bool(np.allclose(y, oracle,
                                             rtol=1e-10, atol=1e-12)),
                        SUITE, "spmv-matches-dense-oracle", subject,
                        f"max abs error {err:.3e} vs dense A @ x")
            _check_spgemm(report, name, a)
            _check_spmm(report, name, a, rng, nthreads)
            _check_solvers(report, name, a, rng,
                           *SOLVER_PAIRS[i % len(SOLVER_PAIRS)])
    return report


# ----------------------------------------------------------------------
# workload kernels
# ----------------------------------------------------------------------
def _check_spgemm(report: CheckReport, name: str, a) -> None:
    if not a.is_square or a.nrows > SPGEMM_MAX_ROWS:
        return
    subject = f"matrix={name} kernel=spgemm"
    try:
        c = products.spgemm(a)
    except Exception as exc:  # noqa: BLE001 - report
        report.case()
        report.fail(SUITE, "kernel-crash", subject,
                    f"{type(exc).__name__}: {exc}")
        return
    d = a.to_dense()
    oracle = d @ d
    dense_c = c.to_dense()
    err = float(np.max(np.abs(dense_c - oracle), initial=0.0))
    report.check(
        dense_c.shape == oracle.shape
        and bool(np.allclose(dense_c, oracle, rtol=1e-8, atol=1e-10)),
        SUITE, "spgemm-matches-dense-oracle", subject,
        f"max abs error {err:.3e} vs dense A @ A")


def _check_spmm(report: CheckReport, name: str, a, rng,
                nthreads) -> None:
    if a.nrows > SPMM_MAX_ROWS:
        return
    x = rng.standard_normal((a.ncols, SPMM_VECTORS))
    oracle = a.to_dense() @ x
    for kind in KERNELS:
        for nt in nthreads:
            subject = (f"matrix={name} kernel=spmm:{kind} "
                       f"nthreads={nt}")
            try:
                y = products.spmm(a, x, kind, nt)
            except Exception as exc:  # noqa: BLE001 - report
                report.case()
                report.fail(SUITE, "kernel-crash", subject,
                            f"{type(exc).__name__}: {exc}")
                continue
            err = float(np.max(np.abs(y - oracle), initial=0.0))
            report.check(
                y.shape == oracle.shape
                and bool(np.allclose(y, oracle, rtol=1e-8, atol=1e-10)),
                SUITE, "spmm-matches-dense-oracle", subject,
                f"max abs error {err:.3e} vs dense A @ X "
                f"(k={SPMM_VECTORS})")


def _spd_system(a):
    """A diagonally dominant SPD stand-in sharing ``a``'s structure.

    Symmetrise the matrix and shift the diagonal by twice the largest
    absolute row sum ``R`` (plus one), so CG's SPD requirement and
    Jacobi's dominance requirement both hold by construction while the
    sparsity pattern (what reordering acts on) stays recognisable.
    The eigenvalues lie in ``[R + 1, 3R + 1]``: CG's condition number
    is at most 3 and each Jacobi sweep shrinks the error at least 2x,
    so both converge in a handful of SpMVs.
    """
    d = a.to_dense()
    s = 0.5 * (d + d.T)
    shift = 2.0 * np.abs(s).sum(axis=1).max(initial=0.0) + 1.0
    np.fill_diagonal(s, s.diagonal() + shift)
    return csr_from_dense(s), s


def _check_solvers(report: CheckReport, name: str, a, rng,
                   solver: str, kind: str) -> None:
    if not a.is_square or a.nrows > SOLVER_MAX_ROWS:
        return
    m, s = _spd_system(a)
    b = rng.standard_normal(a.nrows)
    exact = np.linalg.solve(s, b)
    bnorm = float(np.linalg.norm(b))
    subject = f"matrix={name} solver={solver} kernel={kind}"
    try:
        res = getattr(iterative, solver)(m, b, kind=kind, nthreads=2)
    except ReproError as exc:
        # a typed solver failure on this well-conditioned SPD system
        # is a convergence bug, not an input error
        report.case()
        report.fail(SUITE, f"{solver}-converges", subject,
                    f"solver raised {type(exc).__name__}: {exc}")
        return
    except Exception as exc:  # noqa: BLE001 - report
        report.case()
        report.fail(SUITE, "solver-crash", subject,
                    f"{type(exc).__name__}: {exc}")
        return
    report.check(
        res.converged, SUITE, f"{solver}-converges", subject,
        f"no convergence in {res.iterations} iteration(s); "
        f"final residual {res.final_residual:.3e}")
    err = float(np.max(np.abs(res.x - exact), initial=0.0))
    report.check(
        bool(np.allclose(res.x, exact, rtol=1e-6, atol=1e-8)),
        SUITE, f"{solver}-matches-dense-solve", subject,
        f"max abs error {err:.3e} vs np.linalg.solve")
    recomputed = float(np.linalg.norm(b - s @ res.x))
    report.check(
        abs(recomputed - res.final_residual) <= 1e-6 * max(bnorm, 1.0),
        SUITE, "solver-residual-matches-recomputed", subject,
        f"reported ||r|| {res.final_residual:.3e} vs "
        f"recomputed {recomputed:.3e}")
    report.check(
        res.iterates.shape == (res.iterations + 1, m.nrows)
        and bool(np.array_equal(res.iterates[-1], res.x)),
        SUITE, "solver-history-final-iterate", subject,
        f"history shape {res.iterates.shape} for {res.iterations} "
        "iteration(s); the last history row must equal the returned "
        "solution bit-for-bit")
