"""Micro-benchmarks of the numeric SpMV kernels themselves.

These time the actual Python/numpy execution (not the machine model):
useful for tracking performance regressions of the substrate and for
verifying that the 2D kernel's partial-row handling costs little.
``test_kernel_times_ledger`` writes min-of-k ``spmv_1d`` / ``spmv_2d``
/ ``spmm`` microseconds at 8 and 72 threads to the bench ledger.
"""

import timeit

import numpy as np
import pytest

from repro.generators import stencil_2d
from repro.obs.perf import metric
from repro.spmv import schedule_1d, schedule_2d, spmv_1d, spmv_2d
from repro.spmv.products import spmm

#: ledger thread counts: few and many (up to two boundary spans per thread)
LEDGER_THREADS = (8, 72)
#: min-of-k: repeats of ``NUMBER`` calls each
REPEATS, NUMBER = 7, 20


@pytest.fixture(scope="module")
def matrix():
    return stencil_2d(60, seed=0)  # 3600 rows, ~21k nnz


@pytest.fixture(scope="module")
def x(matrix):
    return np.random.default_rng(0).standard_normal(matrix.ncols)


def test_bench_spmv_1d(benchmark, matrix, x):
    s = schedule_1d(matrix, 8)
    y = benchmark(spmv_1d, matrix, x, s)
    assert np.allclose(y, matrix.to_scipy() @ x)


def test_bench_spmv_2d(benchmark, matrix, x):
    s = schedule_2d(matrix, 8)
    y = benchmark(spmv_2d, matrix, x, s)
    assert np.allclose(y, matrix.to_scipy() @ x)


def test_bench_reference_matvec(benchmark, matrix, x):
    y = benchmark(matrix.matvec, x)
    assert np.allclose(y, matrix.to_scipy() @ x)


def test_bench_scipy_matvec(benchmark, matrix, x):
    sp = matrix.to_scipy()
    benchmark(lambda: sp @ x)


def test_kernel_times_ledger(matrix, x, record_bench):
    xb = np.random.default_rng(1).standard_normal((matrix.ncols, 4))
    dense = matrix.to_scipy()
    metrics = {}
    for nt in LEDGER_THREADS:
        s1, s2 = schedule_1d(matrix, nt), schedule_2d(matrix, nt)
        calls = {
            "spmv_1d": (lambda: spmv_1d(matrix, x, s1), dense @ x),
            "spmv_2d": (lambda: spmv_2d(matrix, x, s2), dense @ x),
            "spmm": (lambda: spmm(matrix, xb, "2d", nt), dense @ xb),
        }
        for name, (call, want) in calls.items():
            assert np.allclose(call(), want)
            samples = [t / NUMBER * 1e6 for t in
                       timeit.repeat(call, number=NUMBER, repeat=REPEATS)]
            metrics[f"{name}_t{nt}_us"] = metric(samples=samples,
                                                 unit="us")
    rec = record_bench("kernels_numeric", metrics,
                       context={"matrix": "stencil_2d(60)",
                                "nnz": int(matrix.nnz), "spmm_k": 4})
    print("\n" + "\n".join(f"{k}: {v['value']:.1f} us"
                            for k, v in rec["metrics"].items()))
