"""Differential checks of the performance model's fast path.

The model has two layers of "clever" code that must stay bit-identical
to their naive definitions:

* the **reuse primitive** (:mod:`repro.machine.reuse`) — the
  one-argsort previous-occurrence array, cross-validated against a
  naive per-element Python oracle (a dict of last positions);
* the **memoised fast path** — per-cell :meth:`PerfModel.predict` on
  one matrix object shares its :class:`ReuseStats` pass and memoised
  schedules across architectures and kernels; every cell must equal
  the ``fastpath=False`` reference model on a fresh matrix object, bit
  for bit.  The same cells are then scored again as one multi-matrix
  :func:`~repro.machine.model.predict_cells` grid pass, which must
  keep every cell on its own matrix's statistics.  This also covers
  the per-window distinct counting the vectorised pass inlines.

The memoised :class:`ReuseStats` container is additionally checked
against a from-scratch rebuild on an equal-but-distinct matrix object,
so a stale or cross-wired memo entry cannot hide behind its own
consistency.
"""

from __future__ import annotations

import numpy as np

from ..machine import model as model_mod
from ..machine import reuse as reuse_mod
from ..machine.arch import get_architecture
from ..matrix.csr import CSRMatrix
from ..obs.trace import span
from ..spmv.schedule import get_schedule, schedule_1d, schedule_2d
from .findings import CheckReport

SUITE = "model"

#: architectures the differential pass evaluates (one Intel, one AMD,
#: one ARM keeps the pass cheap while covering distinct cache shapes)
CHECK_ARCHS = ("Skylake", "Rome", "TX2")


def _naive_prev(stream) -> np.ndarray:
    last: dict = {}
    prev = np.full(len(stream), -1, dtype=np.int64)
    for i, v in enumerate(stream):
        prev[i] = last.get(int(v), -1)
        last[int(v)] = i
    return prev


def _fresh_copy(a: CSRMatrix) -> CSRMatrix:
    """An equal matrix sharing no object identity with ``a`` — a memo
    keyed or cached on the original object cannot serve it."""
    return CSRMatrix(a.nrows, a.ncols, a.rowptr.copy(),
                     a.colidx.copy(), a.values.copy())


def check_reuse_primitives(matrices, words_per_line: int = 8) -> CheckReport:
    """Reuse-statistic primitives vs naive per-element oracles."""
    report = CheckReport(suites=[SUITE])
    with span("check.model.reuse"):
        for name, a in matrices:
            subject = f"matrix={name}"
            lines = a.colidx // words_per_line
            small = lines[:512]  # keeps the Python-loop oracle cheap

            prev = reuse_mod.prev_occurrence(small)
            want = _naive_prev(small)
            report.check(
                bool(np.array_equal(prev, want)), SUITE,
                "prev-occurrence-matches-naive", subject,
                "argsort-based previous-occurrence differs from the "
                "dict-of-last-positions oracle")

            # the memo must serve statistics of *this* matrix: compare
            # against a from-scratch rebuild on an equal fresh object
            stats = reuse_mod.ReuseStats.for_matrix(a)
            served = stats.prev(words_per_line)
            rebuilt = reuse_mod.ReuseStats(
                _fresh_copy(a)).prev(words_per_line)
            report.check(
                bool(np.array_equal(served, rebuilt)), SUITE,
                "reuse-memo-matches-rebuild", subject,
                "memoised previous-occurrence array differs from a "
                "from-scratch rebuild (stale or cross-wired memo)")
            report.check(
                served is stats.prev(words_per_line), SUITE,
                "reuse-memo-is-stable", subject,
                "repeated memo reads returned different objects")
    return report


def _same_prediction(got, want) -> bool:
    return (got.seconds == want.seconds
            and got.x_line_loads == want.x_line_loads
            and bool(np.array_equal(got.thread_seconds,
                                    want.thread_seconds)))


def check_model_fastpath(matrices, architectures=CHECK_ARCHS) -> CheckReport:
    """Memoised fast path vs the naive reference model, per cell and
    as one multi-matrix grid pass."""
    archs = [get_architecture(n) for n in architectures]
    report = CheckReport(suites=[SUITE])
    grid = []  # (subject, matrix, model, schedule, reference)
    with span("check.model.fastpath"):
        for name, a in matrices:
            if a.nnz == 0:
                continue  # the model is defined over nonempty matrices
            for arch in archs:
                model = model_mod.PerfModel(arch)
                reference = model_mod.PerfModel(arch, fastpath=False)
                for kernel in ("1d", "2d"):
                    subject = (f"matrix={name} arch={arch.name} "
                               f"kernel={kernel}")
                    fast_schedule = get_schedule(a, kernel, arch.threads)
                    got = model.predict(a, fast_schedule)
                    schedule = (schedule_1d(a, arch.threads)
                                if kernel == "1d"
                                else schedule_2d(a, arch.threads))
                    want = reference.predict(_fresh_copy(a), schedule)
                    report.check(
                        _same_prediction(got, want),
                        SUITE, "fastpath-matches-naive-model", subject,
                        f"fastpath seconds={got.seconds!r} "
                        f"x_line_loads={got.x_line_loads} vs naive "
                        f"{want.seconds!r}/{want.x_line_loads}")
                    grid.append((subject, a, model, fast_schedule, want))
        # every cell of every matrix in one pass: each cell must still
        # be scored on its own matrix's statistics
        preds = model_mod.predict_cells(
            [(a, model, schedule) for _, a, model, schedule, _ in grid])
        for (subject, _, _, _, want), got in zip(grid, preds):
            report.check(
                _same_prediction(got, want),
                SUITE, "fastpath-matches-naive-model", f"grid {subject}",
                f"grid pass seconds={got.seconds!r} "
                f"x_line_loads={got.x_line_loads} vs naive "
                f"{want.seconds!r}/{want.x_line_loads}")
    return report


def check_model(matrices, architectures=CHECK_ARCHS) -> CheckReport:
    """Both model sub-suites on one corpus."""
    report = check_reuse_primitives(matrices)
    return report.merge(check_model_fastpath(matrices, architectures))
