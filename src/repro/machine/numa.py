"""NUMA placement modelling (paper §3.1).

The study's kernels run on two-socket machines with the *first-touch*
policy "to ensure that the data is placed close to the core using it".
This module models what that buys: under first-touch, each thread's
slice of the matrix lives on its own socket, so matrix streaming is
socket-local; the x vector, however, is read by *all* threads, so a
fraction of x traffic crosses the socket interconnect no matter how it
is placed.

:class:`NumaModel` wraps :class:`~repro.machine.model.PerfModel` and
adds a remote-access surcharge to each thread's x traffic:

* ``first_touch`` — matrix/y local; x pages distributed by the threads
  that touched them first, so on average half of a thread's *remote*
  part of x (columns outside its own block) crosses sockets;
* ``interleaved`` — pages round-robin across sockets: half of *all*
  traffic is remote;
* ``local_only`` — idealised single-socket placement (no surcharge),
  the implicit baseline of :class:`PerfModel`.

Remote accesses pay ``DEFAULT_REMOTE_PENALTY`` × the local byte cost —
the ~1.5–2× bandwidth/latency gap of two-socket Epyc/Xeon systems.

The surcharge is one vectorised expression over all threads, applied
through :meth:`PerfModel._finish_times`, so both model paths (the
vectorised fast pass and the ``fastpath=False`` scalar reference)
carry it.
"""

from __future__ import annotations

import numpy as np

from ..errors import ArchitectureError
from ..matrix.csr import CSRMatrix
from ..spmv.schedule import Schedule
from .arch import Architecture
from .model import BANDWIDTH_EFFICIENCY, PerfModel, X_BYTES_PER_LOAD

PLACEMENTS = ("local_only", "first_touch", "interleaved")
DEFAULT_REMOTE_PENALTY = 1.7


class NumaModel(PerfModel):
    """Performance model with a two-socket NUMA surcharge on x traffic."""

    def __init__(self, arch: Architecture, placement: str = "first_touch",
                 **kwargs) -> None:
        if placement not in PLACEMENTS:
            raise ArchitectureError(
                f"unknown placement {placement!r}; pick from {PLACEMENTS}")
        super().__init__(arch, **kwargs)
        self.placement = placement

    def _remote_fraction(self, a: CSRMatrix,
                         schedule: Schedule) -> np.ndarray:
        """Fraction of each thread's x accesses served by the other
        socket (length ``nthreads``)."""
        tcount = schedule.nthreads
        if self.arch.sockets < 2 or self.placement == "local_only":
            return np.zeros(tcount)
        if self.placement == "interleaved":
            return np.full(tcount, 0.5)
        # first touch: x pages owned by the thread whose block initialised
        # them; accesses inside the thread's own column block are local,
        # the rest split evenly between the sockets
        nnz_t = np.diff(schedule.entry_start)
        tid = np.repeat(np.arange(tcount, dtype=np.int64), nnz_t)
        cols = a.colidx[:tid.size]
        block = a.ncols / tcount
        own = (cols >= tid * block) & (cols < (tid + 1) * block)
        local = np.bincount(tid[own], minlength=tcount)
        busy = nnz_t > 0
        frac = np.zeros(tcount)
        frac[busy] = 0.5 * (1.0 - local[busy] / nnz_t[busy])
        return frac

    def _finish_times(self, a: CSRMatrix, schedule: Schedule,
                      times: np.ndarray, x_loads: np.ndarray,
                      resid: float) -> np.ndarray:
        # surcharge: remote x bytes cost (penalty - 1) extra, paid on
        # the DRAM-side share of the traffic; it is +0.0 for threads
        # with no remote share or no x loads
        frac = self._remote_fraction(a, schedule)
        x_bytes = X_BYTES_PER_LOAD * x_loads
        dram_bw = (self.arch.per_thread_bandwidth(schedule.nthreads)
                   * BANDWIDTH_EFFICIENCY)
        extra = ((DEFAULT_REMOTE_PENALTY - 1.0) * frac * x_bytes
                 * (1.0 - resid) / dram_bw)
        return times + extra
