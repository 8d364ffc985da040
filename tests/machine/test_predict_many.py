"""Golden-equivalence suite for the memoised prediction fast path.

The contract of the fast path (``ReuseStats`` + memoised schedules +
the vectorised all-threads pass) is **bit-identity**: every field of
every :class:`SpmvPrediction` must equal — with ``==``, not
``isclose`` — what the original per-cell, per-thread, per-window
``np.unique`` implementation (``fastpath=False`` on a fresh matrix
object) produces.  This is checked over a small corpus slice, every
ordering of the study, all eight Table 2 architectures and both
kernels, with GP recomputed per distinct ``gp_parts`` exactly as the
sweep engine groups it.  The fast side evaluates every cell of a
variant with per-cell :meth:`PerfModel.predict` calls on one matrix
object, so later cells are served from the statistics and schedules
the first ones memoised.  :class:`NumaModel` runs the same grid under
each of its three placements: its remote-x surcharge is added through
the per-thread hook both paths share, so it too must be bit-identical.
Finally one :func:`predict_cells` pass scores a mixed batch of cells —
several matrices, both line sizes, every kernel kind, the ablation
switches and every NUMA placement — and each must equal its own
per-cell reference.
"""

import dataclasses

import numpy as np
import pytest

from repro.generators.suite import build_corpus
from repro.machine.arch import TABLE2
from repro.machine.bench import simulate_measurement
from repro.machine.model import PerfModel, predict_cells
from repro.machine.numa import PLACEMENTS, NumaModel
from repro.matrix.csr import CSRMatrix
from repro.reorder.registry import ALL_ORDERINGS, compute_ordering
from repro.spmv.schedule import (build_schedule, get_schedule, schedule_1d,
                                 schedule_2d)

ARCHS = list(TABLE2.values())
#: small/fast corpus slice spanning the generator families
CASE_INDICES = (0, 8, 12, 23, 26, 31)


@pytest.fixture(scope="module")
def corpus_slice():
    corpus = build_corpus("tiny", seed=0)
    return [corpus[i] for i in CASE_INDICES]


@pytest.fixture(scope="module")
def variants(corpus_slice):
    """(matrix, ordering, reordered matrix) over the whole slice."""
    return [(entry.name, ordering, b) for entry in corpus_slice
            for ordering, b in iter_variants(entry)]


def fresh_copy(a: CSRMatrix) -> CSRMatrix:
    """A new matrix object with no memoised caches attached."""
    return CSRMatrix(a.nrows, a.ncols, a.rowptr.copy(), a.colidx.copy(),
                     a.values.copy())


def reference_prediction(a, arch, kernel, model=None):
    """The scalar reference: fresh matrix, no caches, per-window
    ``np.unique`` loop."""
    model = model or PerfModel(arch, fastpath=False)
    b = fresh_copy(a)
    schedule = (schedule_1d if kernel == "1d" else schedule_2d)(
        b, arch.threads)
    return model.predict(b, schedule)


def assert_same_prediction(fast, ref, context):
    assert fast.seconds == ref.seconds, context
    assert fast.x_line_loads == ref.x_line_loads, context
    assert fast.bytes_total == ref.bytes_total, context
    assert fast.gflops == ref.gflops, context
    assert fast.llc_residency == ref.llc_residency, context
    assert np.array_equal(fast.thread_seconds, ref.thread_seconds), context


def iter_variants(entry, seed=0):
    """(ordering-name, reordered matrix) pairs, with GP computed once
    per distinct gp_parts like the sweep engine does."""
    a = entry.matrix
    for name in ALL_ORDERINGS:
        if name == "original":
            yield name, fresh_copy(a)
        elif name == "GP":
            for nparts in sorted({arch.gp_parts for arch in ARCHS}):
                result = compute_ordering(a, name, nparts=nparts, seed=seed)
                yield f"GP@{nparts}", result.apply(a)
        else:
            result = compute_ordering(a, name, seed=seed)
            yield name, result.apply(a)


def test_per_cell_predict_bit_identical_to_reference(variants):
    for name, ordering, b in variants:
        for arch in ARCHS:
            model = PerfModel(arch)
            for kernel in ("1d", "2d"):
                fast = model.predict(b, get_schedule(b, kernel,
                                                     arch.threads))
                ref = reference_prediction(b, arch, kernel)
                assert_same_prediction(
                    fast, ref, (name, ordering, arch.name, kernel))


@pytest.mark.parametrize("placement", PLACEMENTS)
def test_numa_model_fast_matches_reference(variants, placement):
    for name, ordering, b in variants:
        for arch in ARCHS:
            fast_model = NumaModel(arch, placement=placement)
            ref_model = NumaModel(arch, placement=placement,
                                  fastpath=False)
            for kernel in ("1d", "2d"):
                fast = fast_model.predict(
                    b, get_schedule(b, kernel, arch.threads))
                ref = reference_prediction(b, arch, kernel, ref_model)
                assert_same_prediction(
                    fast, ref, (name, ordering, arch.name, kernel))


def test_simulate_measurement_bit_identical_to_reference_records(
        corpus_slice):
    for entry in corpus_slice[:2]:
        b = fresh_copy(entry.matrix)
        fast = [simulate_measurement(b, arch, kernel, entry.name,
                                     "original")
                for arch in ARCHS for kernel in ("1d", "2d")]
        legacy = [simulate_measurement(fresh_copy(entry.matrix), arch,
                                       kernel, entry.name, "original",
                                       model=PerfModel(arch, fastpath=False))
                  for arch in ARCHS for kernel in ("1d", "2d")]
        assert fast == legacy


def test_fastpath_ablation_models_stay_identical(corpus_slice):
    """The locality/imbalance ablation switches must not diverge
    between the fast and reference paths."""
    entry = corpus_slice[1]
    arch = ARCHS[0]
    for flags in ({"locality_term": False}, {"imbalance_term": False},
                  {"locality_term": False, "imbalance_term": False}):
        b = fresh_copy(entry.matrix)
        fast = PerfModel(arch, **flags).predict(
            b, get_schedule(b, "2d", arch.threads))
        c = fresh_copy(entry.matrix)
        ref = PerfModel(arch, fastpath=False, **flags).predict(
            c, schedule_2d(c, arch.threads))
        assert_same_prediction(fast, ref, flags)


def test_empty_and_tiny_matrices_agree():
    empty = CSRMatrix(3, 3, np.array([0, 0, 0, 0]), np.array([], dtype=int),
                      np.array([]))
    single = CSRMatrix(1, 1, np.array([0, 1]), np.array([0]),
                       np.array([1.0]))
    for a in (empty, single):
        for arch in ARCHS[:3]:
            for kernel in ("1d", "2d"):
                fast = PerfModel(arch).predict(
                    a, get_schedule(a, kernel, arch.threads))
                b = fresh_copy(a)
                sched = (schedule_1d if kernel == "1d" else schedule_2d)(
                    b, arch.threads)
                ref = PerfModel(arch, fastpath=False).predict(b, sched)
                assert_same_prediction(fast, ref, (a.nnz, arch.name, kernel))


def test_one_pass_over_a_mixed_batch_matches_per_cell_reference(variants):
    """Cells of different matrices, line sizes, kinds and models share
    one concatenated pass; each must still score as if alone."""
    empty = CSRMatrix(3, 3, np.array([0, 0, 0, 0]), np.array([], dtype=int),
                      np.array([]))
    single = CSRMatrix(1, 1, np.array([0, 1]), np.array([0]),
                       np.array([1.0]))  # nthreads > nrows everywhere
    matrices = [b for _, ordering, b in variants
                if ordering in ("original", "RCM")][:4] + [empty, single]
    skylake = TABLE2["Skylake"]
    archs = [TABLE2["Rome"], TABLE2["Milan B"], TABLE2["TX2"],
             dataclasses.replace(skylake, name="Skylake-128B",
                                 line_size=2 * skylake.line_size)]
    variants_of_model = [{}, {"locality_term": False},
                         {"imbalance_term": False}]
    cells, references = [], []
    for a in matrices:
        for arch in archs:
            models = [(PerfModel, flags) for flags in variants_of_model] + [
                (NumaModel, {"placement": p}) for p in PLACEMENTS]
            for cls, flags in models:
                for kind in ("1d", "2d", "merge"):
                    cells.append((a, cls(arch, **flags),
                                  get_schedule(a, kind, arch.threads)))
                    b = fresh_copy(a)
                    references.append(
                        cls(arch, fastpath=False, **flags).predict(
                            b, build_schedule(b, kind, arch.threads)))
    assert len({id(a) for a, _, _ in cells}) == len(matrices)
    for (a, model, schedule), fast, ref in zip(
            cells, predict_cells(cells), references):
        assert_same_prediction(fast, ref, (a.nnz, model.arch.name,
                                           type(model).__name__,
                                           schedule.kind))
