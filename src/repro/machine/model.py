"""Analytical multicore SpMV performance model.

The model predicts the execution time of one scheduled SpMV iteration
on a Table 2 architecture from first principles, using the two effects
the paper identifies as decisive (§4.4–4.5):

1. **Load balance** — per-thread times are computed independently and
   the iteration time is their maximum (static schedule, barrier at the
   end).  An imbalanced 1D row split therefore directly stretches the
   predicted time.

2. **Data locality** — x-vector gathers are estimated with a *windowed
   working-set model* against the per-core L2: if all x-lines a thread
   touches fit, each line is fetched once per iteration; otherwise the
   access stream is split into cache-sized windows and every window
   refetches its distinct lines.  Orderings that cluster column
   accesses (GP, HP, RCM) shrink the per-window distinct-line count and
   thus x traffic — the model's counterpart of the off-diagonal
   nonzero/edge-cut feature (§4.5, key finding 5).

Where that traffic is served from follows the paper's observation that
most of the 490 matrices fit in last-level cache (§4.1: only 77 exceed
the largest LLC): the combined working set (CSR arrays + x) is resident
in the scaled LLC with fraction ``resid``; that fraction of the traffic
moves at LLC bandwidth (``L3_BANDWIDTH_MULT`` × DRAM) and the rest at
the contended DRAM share.  Cache-resident matrices therefore see
*muted* ordering effects and LLC-exceeding ones the full effect —
reproducing both the paper's mild medians and its extreme outliers.

On top of the bandwidth roofline sits a compute roofline:
``cpi·nnz + c_row·rows + c_mispredict·(row-length changes)`` cycles —
the last term models the branch effects that motivate the Gray
ordering's density grouping.  Per-ISA constants give the ARM CPUs their
lower instruction throughput (the paper notes their weak baseline ILP
and their large 2D-algorithm gains, §4.3).

The corpus is ~3 orders of magnitude smaller than the paper's matrices,
so cache capacities are scaled down by ``DEFAULT_CACHE_SCALE`` to keep the
cache-resident/cache-exceeding boundary at the same relative position
(DESIGN.md §2).  The model is deterministic: the goal is the *shape* of
the paper's results (who wins, where, and why), not absolute Gflop/s.

:meth:`PerfModel.predict` has two paths to the per-thread times: the
vectorised all-threads pass (``fastpath=True``, fed by the memoised
:class:`~repro.machine.reuse.ReuseStats`) and the per-thread scalar
reference (``fastpath=False``, per-window ``np.unique``), which the
golden-equivalence suite and ``repro check --suites model`` hold the
fast pass to bit for bit.  Both finish through one per-thread hook,
:meth:`PerfModel._finish_times`, which subclasses override to add a
term to every thread's time (:class:`~repro.machine.numa.NumaModel`'s
remote-x surcharge).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..matrix.csr import CSRMatrix
from ..obs.metrics import REGISTRY
from ..spmv.schedule import Schedule
from .arch import Architecture
from .reuse import ReuseStats

#: bytes per stored nonzero streamed each iteration: 8 (value) + 4
#: (column index, 32-bit as in the paper §4.1)
BYTES_PER_NNZ = 12.0
#: bytes per row: 4 (row pointer) + 8 (y store)
BYTES_PER_ROW = 12.0
#: fraction of each cache level realistically usable by SpMV data
CACHE_UTILISATION = 0.5
#: sustained fraction of theoretical peak DRAM bandwidth (the paper's
#: dense calibration run reaches ~77 % of peak on Milan B, §4.2)
BANDWIDTH_EFFICIENCY = 0.77
#: aggregate LLC bandwidth relative to DRAM bandwidth
L3_BANDWIDTH_MULT = 4.0
#: outstanding-miss parallelism assumed for gather latency overlap
MEMORY_PARALLELISM = 20.0
MEMORY_LATENCY_S = 90e-9
#: cache scale-down matching the corpus scale-down (see module docstring)
DEFAULT_CACHE_SCALE = 1.0 / 1024.0
#: ceiling on the modelled LLC residency: a shared LLC also holds
#: instructions, y write-allocate lines and other tenants, so even a
#: nominally cache-fitting working set keeps a DRAM traffic share.
#: This is also what keeps the eight machines' behaviour similar, as
#: the paper observes (key finding 3), despite their 16x LLC spread.
#: Symmetrically, RESIDENCY_FLOOR models the hot fraction of an
#: LLC-exceeding working set that still hits (the LRU-recent x lines).
RESIDENCY_CAP = 0.7
RESIDENCY_FLOOR = 0.3
#: fraction of capacity-regime x reloads charged (prefetch/OoO overlap
#: hides part of the naive reload count)
LOCALITY_WEIGHT = 0.5
#: effective bytes charged per x line fetch.  A full line is 64 B, but
#: prefetch overlap and partial-line reuse mean the marginal bandwidth
#: cost of a gather is lower; 16 B calibrates the model's speedup
#: spread to the paper's interquartile band (~0.5-1.5x, Fig. 2)
X_BYTES_PER_LOAD = 16.0

#: per-ISA instruction cost constants (cycles).  CPI is per nonzero of
#: the scalar CSR inner loop (load-load-fma dependency chain); the
#: values are calibrated against the paper's measured medians — ~80
#: Gflop/s on the 128-core Milan B implies ~10 cycles/nnz-row work on
#: x86, and the ARM machines' low 20–30 Gflop/s medians (§4.3 blames
#: weak ILP/compiler support) imply far higher per-element cost.
_CPI_FLOP = {"x86-64": 3.5, "ARMv8.1": 7.0, "ARMv8.2": 11.0}
_CYCLES_PER_ROW = {"x86-64": 10.0, "ARMv8.1": 20.0, "ARMv8.2": 22.0}
_MISPREDICT_CYCLES = {"x86-64": 14.0, "ARMv8.1": 22.0, "ARMv8.2": 20.0}


@dataclass(frozen=True)
class SpmvPrediction:
    """Model output for one (matrix, schedule, architecture) triple."""

    seconds: float            # time of one iteration (max over threads)
    thread_seconds: np.ndarray
    x_line_loads: int         # modelled x-vector line fetches
    gflops: float
    bytes_total: float
    llc_residency: float      # fraction of working set resident in LLC


class PerfModel:
    """Performance model bound to one architecture.

    Parameters
    ----------
    arch:
        A Table 2 :class:`Architecture`.
    locality_term / imbalance_term:
        Ablation switches (DESIGN.md §5).  Disabling the locality term
        charges one x line fetch per nonzero regardless of ordering;
        disabling the imbalance term replaces max-over-threads with the
        mean.
    fastpath:
        ``True`` runs the vectorised all-threads pass on the memoised
        per-matrix :class:`~repro.machine.reuse.ReuseStats` (and
        schedules from the per-matrix schedule cache).  ``False`` runs
        the per-thread scalar reference, which the golden-equivalence
        tests and the fast-path benchmark compare against; the
        predictions are bit-identical either way.
    """

    def __init__(self, arch: Architecture, locality_term: bool = True,
                 imbalance_term: bool = True,
                 fastpath: bool = True) -> None:
        self.arch = arch
        self.locality_term = locality_term
        self.imbalance_term = imbalance_term
        self.fastpath = fastpath
        self._cpi = _CPI_FLOP[arch.isa]
        self._row_cycles = _CYCLES_PER_ROW[arch.isa]
        self._mispredict = _MISPREDICT_CYCLES[arch.isa]

    # ------------------------------------------------------------------
    # capacities
    # ------------------------------------------------------------------
    def _l2_lines(self) -> int:
        """x-line capacity of the (scaled) per-core L2 window."""
        return max(int(self.arch.l2_per_core * CACHE_UTILISATION
                       * DEFAULT_CACHE_SCALE // self.arch.line_size), 8)

    def _llc_bytes(self) -> float:
        """Usable (scaled) machine-wide last-level cache capacity."""
        return self.arch.l3_total * CACHE_UTILISATION * DEFAULT_CACHE_SCALE

    def llc_residency(self, a: CSRMatrix) -> float:
        """Fraction of the SpMV working set resident in the scaled LLC."""
        working_set = (BYTES_PER_NNZ * a.nnz + BYTES_PER_ROW * a.nrows
                       + 8.0 * a.ncols)
        raw = min(1.0, self._llc_bytes() / max(working_set, 1.0))
        return float(RESIDENCY_FLOOR
                     + (RESIDENCY_CAP - RESIDENCY_FLOOR) * raw)

    # ------------------------------------------------------------------
    # per-thread scalar reference
    # ------------------------------------------------------------------
    def _x_line_loads(self, cols: np.ndarray) -> int:
        """Modelled x line fetches (beyond L1/L2) for one thread's
        column-index stream, via the windowed working-set model: one
        ``np.unique`` per cache-sized window.  The scalar reference
        and the model/simulator validation probe both use it."""
        if cols.size == 0:
            return 0
        lines = cols // (self.arch.line_size // 8)
        if not self.locality_term:
            return int(cols.size)
        capacity_lines = self._l2_lines()
        distinct_total = int(np.unique(lines).size)
        if distinct_total <= capacity_lines:
            return distinct_total
        # capacity regime: estimate how many accesses fill the window,
        # then charge each window its distinct lines
        density = distinct_total / cols.size  # new-line probability
        window = max(int(capacity_lines / max(density, 0.05)),
                     capacity_lines)
        loads = 0
        for start in range(0, cols.size, window):
            loads += int(np.unique(lines[start:start + window]).size)
        # compulsory fetches in full, capacity reloads damped
        return int(distinct_total
                   + LOCALITY_WEIGHT * (loads - distinct_total))

    def _thread_time(self, a: CSRMatrix, schedule: Schedule, t: int,
                     resid: float) -> tuple:
        lo, hi = schedule.thread_entry_range(t)
        nnz_t = hi - lo
        rows_t = max(int(schedule.row_start[t + 1] - schedule.row_start[t]),
                     1 if nnz_t else 0)
        x_loads = self._x_line_loads(a.colidx[lo:hi])
        bytes_t = (BYTES_PER_NNZ * nnz_t + BYTES_PER_ROW * rows_t
                   + X_BYTES_PER_LOAD * x_loads)
        dram_bw = (self.arch.per_thread_bandwidth(schedule.nthreads)
                   * BANDWIDTH_EFFICIENCY)
        l3_bw = dram_bw * L3_BANDWIDTH_MULT
        # DRAM and LLC act as parallel channels (prefetchers stream the
        # matrix from DRAM while the LLC serves resident gathers), so a
        # thread is bound by the slower channel, not their sum
        time_mem = max(bytes_t * (1.0 - resid) / dram_bw,
                       bytes_t / l3_bw)
        time_lat = (x_loads * (1.0 - resid) * MEMORY_LATENCY_S
                    / MEMORY_PARALLELISM)
        # compute roofline with branch-irregularity penalty
        lengths = np.diff(a.rowptr[int(schedule.row_start[t]):
                                   int(schedule.row_start[t + 1]) + 1])
        if lengths.size > 1:
            changes = int(np.count_nonzero(np.diff(lengths)))
        else:
            changes = 0
        cycles = (self._cpi * nnz_t + self._row_cycles * rows_t
                  + self._mispredict * changes)
        time_cpu = cycles / (self.arch.freq_ghz * 1e9)
        return max(time_mem + time_lat, time_cpu), x_loads, bytes_t

    # ------------------------------------------------------------------
    # vectorised all-threads fast path
    # ------------------------------------------------------------------
    def _x_loads_batch(self, schedule: Schedule, reuse: ReuseStats,
                       prev: np.ndarray, nnz_t: np.ndarray) -> np.ndarray:
        """Per-thread x line loads for every thread at once.

        Same windowed working-set model as :meth:`_x_line_loads`, with
        the per-thread slices handled by one pass over the entry stream
        (thread ids via ``repeat``, per-thread counts via ``bincount``).
        Position ``i`` is the first access to its line inside a slice
        (or window) starting at ``s`` exactly when ``prev[i] < s``, so
        the counts equal the per-window ``np.unique`` sizes.
        """
        n = prev.size
        tcount = schedule.nthreads
        tid = np.repeat(np.arange(tcount, dtype=np.int64), nnz_t)
        lo = np.repeat(schedule.entry_start[:-1], nnz_t)
        distinct = np.bincount(tid[prev < lo], minlength=tcount)
        cap = self._l2_lines()
        x_loads = distinct.copy()
        capm = distinct > cap
        if not capm.any():
            return x_loads
        # capacity regime per thread: window from that thread's density
        density = distinct[capm] / nnz_t[capm]
        window = np.ones(tcount, dtype=np.int64)
        window[capm] = np.maximum(
            (cap / np.maximum(density, 0.05)).astype(np.int64), cap)
        win = np.repeat(window, nnz_t)
        rel = reuse.positions(n) - lo
        wstart = lo + (rel // win) * win
        loads = np.bincount(tid[prev < wstart], minlength=tcount)
        x_loads[capm] = (distinct[capm] + LOCALITY_WEIGHT
                         * (loads[capm] - distinct[capm])).astype(np.int64)
        return x_loads

    def _predict_batch(self, a: CSRMatrix, schedule: Schedule,
                       reuse: ReuseStats, prev: np.ndarray | None,
                       resid: float) -> tuple:
        """All per-thread costs in one vectorised pass.

        Elementwise float64 operations in the same order as
        :meth:`_thread_time`, so ``(times, x_loads, bytes)`` are
        bit-identical to the per-thread reference (asserted by the
        golden-equivalence suite).
        """
        tcount = schedule.nthreads
        nnz_t = np.diff(schedule.entry_start)
        rows_span = schedule.row_start[1:] - schedule.row_start[:-1]
        rows_t = np.maximum(rows_span, (nnz_t > 0).astype(np.int64))
        if not self.locality_term:
            x_loads = nnz_t.copy()
        elif prev is None or a.nnz == 0:
            x_loads = np.zeros(tcount, dtype=np.int64)
        else:
            x_loads = self._x_loads_batch(schedule, reuse, prev, nnz_t)
        changes = np.zeros(tcount, dtype=np.int64)
        multi = rows_span >= 2
        if multi.any():
            p = reuse.row_change_prefix()
            changes[multi] = (p[schedule.row_start[1:][multi] - 1]
                              - p[schedule.row_start[:-1][multi]])
        bytes_t = (BYTES_PER_NNZ * nnz_t + BYTES_PER_ROW * rows_t
                   + X_BYTES_PER_LOAD * x_loads)
        dram_bw = (self.arch.per_thread_bandwidth(tcount)
                   * BANDWIDTH_EFFICIENCY)
        l3_bw = dram_bw * L3_BANDWIDTH_MULT
        time_mem = np.maximum(bytes_t * (1.0 - resid) / dram_bw,
                              bytes_t / l3_bw)
        time_lat = (x_loads * (1.0 - resid) * MEMORY_LATENCY_S
                    / MEMORY_PARALLELISM)
        cycles = (self._cpi * nnz_t + self._row_cycles * rows_t
                  + self._mispredict * changes)
        time_cpu = cycles / (self.arch.freq_ghz * 1e9)
        return np.maximum(time_mem + time_lat, time_cpu), x_loads, bytes_t

    def _finish_times(self, a: CSRMatrix, schedule: Schedule,
                      times: np.ndarray, x_loads: np.ndarray,
                      resid: float) -> np.ndarray:
        """Per-thread hook both paths finish through: subclasses add a
        term to every thread's time (``x_loads`` holds each thread's
        modelled line fetches).  The base model adds nothing."""
        return times

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def predict(self, a: CSRMatrix, schedule: Schedule) -> SpmvPrediction:
        """Predict one warm-cache SpMV iteration under ``schedule``.

        The fast path reads the statistics memoised on ``a``
        (:meth:`ReuseStats.for_matrix`), so repeated predictions on the
        same matrix object — across architectures, kernels and thread
        counts — share one previous-occurrence pass.
        """
        REGISTRY.counter("model.predicts").inc()
        resid = self.llc_residency(a)
        if self.fastpath:
            reuse = ReuseStats.for_matrix(a)
            prev = None
            if self.locality_term and a.nnz:
                prev = reuse.prev(self.arch.line_size // 8)
            times, x_loads, bytes_t = self._predict_batch(
                a, schedule, reuse, prev, resid)
        else:
            per_thread = [self._thread_time(a, schedule, t, resid)
                          for t in range(schedule.nthreads)]
            times, x_loads, bytes_t = map(np.array, zip(*per_thread))
        times = self._finish_times(a, schedule, times, x_loads, resid)
        if self.imbalance_term:
            seconds = float(times.max())
        else:
            seconds = float(times.mean())
        seconds = max(seconds, 1e-12)
        gflops = 2.0 * a.nnz / seconds / 1e9
        # cumsum accumulates left to right, thread by thread
        total_bytes = float(np.cumsum(bytes_t)[-1])
        return SpmvPrediction(seconds=seconds, thread_seconds=times,
                              x_line_loads=int(x_loads.sum()),
                              gflops=gflops, bytes_total=total_bytes,
                              llc_residency=resid)
