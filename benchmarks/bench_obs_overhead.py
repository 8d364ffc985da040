"""Zero-cost-when-disabled gate for the observability layer.

The obs instrumentation (a stage on every storage / reorder /
reuse-stats / model-eval step, spans around them, registry counters
on the statistics caches) sits on the sweep's hottest paths, so its
cost with tracing *disabled* must be noise.  A stage is never free —
it always reads the clock into its registry histogram — so it is
counted at that always-on cost.

Like ``bench_model_fastpath``, the hard gate is **deterministic**, not
a wall-clock A/B (CI machines are noisy; an inline tiny sweep has a
~±5 % run-to-run floor that would flake a 5 % gate):

1. one instrumented sweep run is executed with *counting* wrappers
   around ``span(...)``, ``stage(...)`` and ``Counter.inc`` to learn
   exactly how many instrumentation calls the workload makes;
2. tight-loop microbenchmarks measure the per-call cost of the
   disabled span fast path, of an untraced stage and of a counter
   increment (these are stable to a few ns);
3. the gate asserts ``calls x per-call cost < 5 %`` of the workload's
   wall time.  If tracing were ever accidentally left enabled by
   default, step 2 would measure the ~10x dearer enabled path and
   blow the gate.

A median-of-interleaved-rounds A/B (instrumented vs a no-obs build
with ``span``/``stage``/``Counter.inc`` monkeypatched away; in each round each
arm repeats the sweep over fresh corpus copies for
:data:`MACRO_CPU_SECONDS` of CPU) is still measured and reported in
``benchmarks/output/<tier>/bench_obs_overhead.json`` as end-to-end
evidence, but only sanity-checked loosely.
"""

from __future__ import annotations

import statistics
import time
from contextlib import nullcontext
from dataclasses import replace

from repro.generators import build_corpus
from repro.harness import OrderingCache, SweepEngine
from repro.machine import get_architecture
from repro.matrix.csr import CSRMatrix
from repro.obs import metrics as metrics_mod
from repro.obs import trace as trace_mod
from repro.util import format_table

from conftest import SEED

#: interleaved rounds per arm for the (informational) macro A/B.
REPEATS = 5
#: CPU seconds each arm sweeps for in one macro A/B round: one ~10 ms
#: sweep is too short to time against run-to-run noise
MACRO_CPU_SECONDS = 0.2
MATRICES = 4
OVERHEAD_GATE = 0.05
#: the macro A/B only guards against egregious regressions.
MACRO_SANITY = 0.50
#: sampling intervals of CPU time the profiled workload must use, so
#: a live timer is sure to fire however fast one sweep gets
PROFILED_INTERVALS = 40

_NULL = nullcontext()


def _null_span(name, **args):
    return _NULL


def _fresh_copies(corpus) -> list:
    """The corpus on new matrix objects, with no memoised statistics."""
    return [replace(e, matrix=CSRMatrix(
        e.matrix.nrows, e.matrix.ncols, e.matrix.rowptr.copy(),
        e.matrix.colidx.copy(), e.matrix.values.copy())) for e in corpus]


def _run_workload(corpus) -> float:
    arch = get_architecture("Rome")
    engine = SweepEngine(corpus, [arch], ["RCM", "Gray"],
                         cache=OrderingCache(), seed=SEED)
    t0 = time.perf_counter()
    result = engine.run()
    elapsed = time.perf_counter() - t0
    assert result.failed == []
    return elapsed


# ----------------------------------------------------------------------
# instrumentation stubs & call counting
# ----------------------------------------------------------------------
def _patch_obs(span_fn, stage_fn, inc_fn):
    """Swap the obs hot-path hooks; returns an undo callable."""
    from repro.harness import engine as engine_mod
    from repro.reorder import registry as registry_mod

    saved = [
        (trace_mod, "span", trace_mod.span),
        (registry_mod, "span", registry_mod.span),
        (engine_mod, "span", engine_mod.span),
        (trace_mod, "stage", trace_mod.stage),
        (engine_mod, "stage", engine_mod.stage),
        (metrics_mod.Counter, "inc", metrics_mod.Counter.inc),
    ]
    trace_mod.span = span_fn
    registry_mod.span = span_fn
    engine_mod.span = span_fn
    trace_mod.stage = stage_fn
    engine_mod.stage = stage_fn
    metrics_mod.Counter.inc = inc_fn

    def undo() -> None:
        for obj, name, orig in saved:
            setattr(obj, name, orig)

    return undo


def _count_instrumentation_calls(corpus) -> dict:
    """How many span()/stage()/inc() calls one workload run makes."""
    calls = {"span": 0, "stage": 0, "inc": 0}
    real_span, real_stage = trace_mod.span, trace_mod.stage
    real_inc = metrics_mod.Counter.inc

    def counting_span(name, **args):
        calls["span"] += 1
        return real_span(name, **args)

    def counting_stage(name, **args):
        calls["stage"] += 1
        return real_stage(name, **args)

    def counting_inc(self, n=1):
        calls["inc"] += 1
        return real_inc(self, n)

    undo = _patch_obs(counting_span, counting_stage, counting_inc)
    try:
        _run_workload(corpus)
    finally:
        undo()
    return calls


def _sweep_for(corpus, cpu_seconds: float) -> list:
    """Wall times of the sweep, repeated over fresh copies of
    ``corpus`` until ``cpu_seconds`` of CPU time are used."""
    times = []
    cpu0 = time.process_time()
    while time.process_time() - cpu0 < cpu_seconds:
        times.append(_run_workload(_fresh_copies(corpus)))
    return times


def _median_interleaved(corpus) -> tuple:
    """Median over rounds of each arm's mean sweep time, alternating
    the arms' order round by round so CPU frequency ramps and cache
    warmup drift hit both equally; also the sweeps per arm."""
    instrumented, baseline = [], []
    for i in range(REPEATS):
        for arm in ((0, 1) if i % 2 == 0 else (1, 0)):
            if arm == 0:
                instrumented.append(_sweep_for(corpus, MACRO_CPU_SECONDS))
            else:
                undo = _patch_obs(_null_span, _null_span,
                                  lambda self, n=1: None)
                try:
                    baseline.append(_sweep_for(corpus, MACRO_CPU_SECONDS))
                finally:
                    undo()
    return (statistics.median(map(statistics.fmean, instrumented)),
            statistics.median(map(statistics.fmean, baseline)),
            sum(map(len, instrumented + baseline)))


def test_disabled_tracing_overhead_under_gate(emit, emit_json):
    assert not trace_mod.is_enabled(), \
        "this gate measures the disabled fast path"
    # fresh corpora per run: matrices memoise their statistics, so
    # reuse would shrink later runs and skew the comparison
    # one corpus per run: warmup + call-count + 3 timed
    corpora = [build_corpus("tiny", seed=SEED)[:MATRICES]
               for _ in range(5)]
    _run_workload(corpora.pop())  # warm caches/imports

    # -- deterministic gate: calls x per-call cost vs workload time ----
    calls = _count_instrumentation_calls(corpora.pop())
    assert calls["span"] > 0 and calls["stage"] > 0 \
        and calls["inc"] > 0, \
        "the workload no longer exercises the instrumentation"
    workload_s = statistics.median(
        _run_workload(corpora.pop()) for _ in range(3))

    n = 200_000
    t0 = time.perf_counter()
    for _ in range(n):
        with trace_mod.span("micro", a=1):
            pass
    disabled_span_ns = (time.perf_counter() - t0) / n * 1e9

    t0 = time.perf_counter()
    for _ in range(n):
        with trace_mod.stage("micro", a=1):
            pass
    stage_ns = (time.perf_counter() - t0) / n * 1e9

    counter = metrics_mod.MetricsRegistry().counter("micro")
    t0 = time.perf_counter()
    for _ in range(n):
        counter.inc()
    counter_inc_ns = (time.perf_counter() - t0) / n * 1e9

    overhead_s = (calls["span"] * disabled_span_ns
                  + calls["stage"] * stage_ns
                  + calls["inc"] * counter_inc_ns) / 1e9
    overhead = overhead_s / workload_s
    assert overhead < OVERHEAD_GATE, \
        (f"disabled instrumentation costs {overhead:.2%} of the sweep "
         f"({calls['span']} spans x {disabled_span_ns:.0f}ns + "
         f"{calls['stage']} stages x {stage_ns:.0f}ns + "
         f"{calls['inc']} incs x {counter_inc_ns:.0f}ns over "
         f"{workload_s * 1e3:.1f}ms); gate is {OVERHEAD_GATE:.0%}")

    # -- macro A/B: end-to-end evidence, loosely sanity-checked --------
    instrumented_s, baseline_s, macro_sweeps = _median_interleaved(
        build_corpus("tiny", seed=SEED)[:MATRICES])
    macro_overhead = instrumented_s / baseline_s - 1.0
    assert macro_overhead < MACRO_SANITY, \
        (f"instrumented sweep {macro_overhead:.0%} slower than the "
         "no-obs build — far beyond measurement noise")

    # enabled-path per-call cost, for the artifact
    tracer = trace_mod.Tracer(enabled=True)
    t0 = time.perf_counter()
    for _ in range(n // 10):
        with tracer.span("micro", a=1):
            pass
    enabled_span_ns = (time.perf_counter() - t0) / (n // 10) * 1e9

    artifact = {
        "seed": SEED,
        "matrices": MATRICES,
        "span_calls": calls["span"],
        "stage_calls": calls["stage"],
        "counter_incs": calls["inc"],
        "workload_seconds": round(workload_s, 5),
        "disabled_span_ns": round(disabled_span_ns, 1),
        "enabled_span_ns": round(enabled_span_ns, 1),
        "stage_ns": round(stage_ns, 1),
        "counter_inc_ns": round(counter_inc_ns, 1),
        "overhead_fraction": round(overhead, 6),
        "gate_fraction": OVERHEAD_GATE,
        "macro_sweeps": macro_sweeps,
        "macro_instrumented_seconds": round(instrumented_s, 5),
        "macro_no_obs_seconds": round(baseline_s, 5),
        "macro_overhead_fraction": round(macro_overhead, 5),
    }
    emit_json("bench_obs_overhead", artifact)
    emit("bench_obs_overhead",
         "Observability overhead: disabled tracing vs no-obs baseline\n"
         + format_table(["metric", "value"],
                        [[k, str(v)] for k, v in artifact.items()]))


# ----------------------------------------------------------------------
# sampling-profiler overhead gate
# ----------------------------------------------------------------------
def _measure_sample_cost(prof, levels: int = 30, reps: int = 2000):
    """Per-call cost of the profiler's signal handler, measured on a
    call stack ``levels`` frames deep (representative of an engine
    run's depth); stable to a few microseconds."""
    import sys

    if levels:
        return _measure_sample_cost(prof, levels - 1, reps)
    frame = sys._getframe()
    t0 = time.perf_counter()
    for _ in range(reps):
        prof._sample(0, frame)
    return (time.perf_counter() - t0) / reps


def test_profiler_overhead_under_gate(emit_json, record_bench):
    """``repro profile`` must cost <5 % of an instrumented tiny sweep.

    Like the tracing gate above, the hard assertion is deterministic:
    the profiler takes at most one sample per ``interval`` seconds of
    CPU time, so its worst-case cost fraction is the per-sample
    handler cost divided by the interval — both sides stable where a
    wall-clock A/B would flake.  A real profiled workload rides along
    to prove the handler actually fires and to report realised
    overhead: the sweep, repeated over fresh corpus copies until it has
    used :data:`PROFILED_INTERVALS` intervals of CPU time (one sweep
    alone can finish inside a single interval).
    """
    from repro.obs.perf import metric
    from repro.obs.profiler import SamplingProfiler

    corpus = build_corpus("tiny", seed=SEED)[:MATRICES]
    _run_workload(_fresh_copies(corpus))  # warm caches/imports

    interval = 0.005
    prof = SamplingProfiler(interval=interval, timer="prof")
    runs = 0
    t0 = time.perf_counter()
    cpu0 = time.process_time()
    with prof:
        while time.process_time() - cpu0 < PROFILED_INTERVALS * interval:
            _run_workload(_fresh_copies(corpus))
            runs += 1
    wall = time.perf_counter() - t0
    samples = prof.samples  # before the cost probe adds its own
    assert samples > 0, \
        "a CPU-bound sweep took no profiler samples — the timer is dead"

    per_sample_s = _measure_sample_cost(prof)
    worst_case = per_sample_s / interval
    realised = samples * per_sample_s / wall
    assert worst_case < OVERHEAD_GATE, \
        (f"profiler handler costs {per_sample_s * 1e6:.1f}us per sample "
         f"at a {interval * 1e3:.0f}ms interval = {worst_case:.2%} "
         f"worst-case overhead; gate is {OVERHEAD_GATE:.0%}")

    artifact = {
        "seed": SEED,
        "matrices": MATRICES,
        "interval_seconds": interval,
        "profiled_runs": runs,
        "samples": samples,
        "profiled_total_wall_seconds": round(wall, 5),
        "profiled_wall_seconds": round(wall / runs, 5),
        "per_sample_us": round(per_sample_s * 1e6, 2),
        "worst_case_overhead_fraction": round(worst_case, 6),
        "realised_overhead_fraction": round(realised, 6),
        "gate_fraction": OVERHEAD_GATE,
    }
    emit_json("bench_profiler_overhead", artifact)
    record_bench("profiler_overhead", {
        "profiled_wall_seconds": metric(wall / runs, unit="s"),
        "per_sample_us": metric(per_sample_s * 1e6, unit="us",
                                tolerance=1.0),
    })
