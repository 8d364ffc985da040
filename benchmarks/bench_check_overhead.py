"""Cost gate for the quick check tier: a fixed op-count budget.

The oracle layer rides in CI on every push, so its quick tier must
stay cheap *by construction*.  Like ``bench_obs_overhead`` and
``bench_model_fastpath``, the hard gate is **deterministic** — counts
of the expensive production primitives the suites invoke (ordering
computations, SpMV kernel launches, model predictions), not wall
time, so it cannot flake on a noisy CI runner:

1. one ``run_check(quick=True)`` is executed with counting wrappers
   around ``compute_ordering``, the two SpMV kernels and
   ``PerfModel.predict``;
2. the gate asserts each count stays under an explicit budget sized
   to the quick corpus (a new suite or a corpus-subsampling
   regression that balloons the tier blows the budget);
3. a coverage floor asserts the subsampling never hollows the tier
   out: at least ``MIN_CASES`` invariant cases must still run.

Wall time is measured and persisted as evidence but only
sanity-checked loosely.
"""

from __future__ import annotations

import time

from repro.check.cli import run_check
from repro.machine import model as model_mod
from repro.reorder import registry as registry_mod
from repro.spmv import kernels as kernels_mod

from conftest import SEED

#: op-count ceilings for one quick-tier run.  Sized from the current
#: quick corpus (19 matrices, ~2000 cases) with ~2x headroom; a
#: breach means the quick tier stopped being quick, not a flaky timer.
BUDGET = {
    "compute_ordering": 800,    # currently ~400 (permutation suite x2)
    "spmv_kernel": 450,         # currently ~310 (kernels + solvers)
    "model_predict": 900,       # currently ~480 (model + artifacts)
}
#: coverage floor: quick subsampling must not hollow the tier out
MIN_CASES = 1000
#: loose wall-time sanity bound (the CI job budget, not a perf gate)
WALL_SANITY_SECONDS = 120.0


def _counting(calls: dict, key: str, fn):
    def wrapper(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def test_quick_check_fits_op_budget(emit, emit_json):
    calls = dict.fromkeys(BUDGET, 0)
    saved = [
        (registry_mod, "compute_ordering", "compute_ordering"),
        (kernels_mod, "spmv_1d", "spmv_kernel"),
        (kernels_mod, "spmv_2d", "spmv_kernel"),
        (model_mod.PerfModel, "predict", "model_predict"),
    ]
    originals = [(obj, name, getattr(obj, name)) for obj, name, _ in saved]
    for (obj, name, key), (_, _, orig) in zip(saved, originals):
        setattr(obj, name, _counting(calls, key, orig))
    t0 = time.perf_counter()
    try:
        report = run_check(seed=SEED, quick=True)
    finally:
        for obj, name, orig in originals:
            setattr(obj, name, orig)
    wall = time.perf_counter() - t0

    assert report.ok, [str(f) for f in report.findings]
    assert report.cases >= MIN_CASES, (
        f"quick tier ran only {report.cases} invariant case(s) — the "
        f"subsampling hollowed the oracle out (floor {MIN_CASES})")
    over = {k: (calls[k], BUDGET[k]) for k in BUDGET
            if calls[k] > BUDGET[k]}
    assert not over, (
        f"quick check blew its op-count budget: {over} — a suite or "
        "corpus change made the CI tier expensive")
    assert wall < WALL_SANITY_SECONDS

    rows = [f"{k:>18}: {calls[k]:5d} / budget {BUDGET[k]}"
            for k in BUDGET]
    text = "\n".join([
        "quick check op-count budget",
        *rows,
        f"{'cases':>18}: {report.cases:5d} / floor  {MIN_CASES}",
        f"{'wall':>18}: {wall:8.2f}s",
    ])
    emit("bench_check_overhead", text)
    emit_json("bench_check_overhead", {
        "calls": calls, "budget": BUDGET, "cases": report.cases,
        "min_cases": MIN_CASES, "wall_seconds": round(wall, 3),
    })
