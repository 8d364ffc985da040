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

Remote accesses pay ``remote_penalty`` × the local byte cost — the
~1.5–2× bandwidth/latency gap of two-socket Epyc/Xeon systems.
"""

from __future__ import annotations

import numpy as np

from ..errors import ArchitectureError
from ..matrix.csr import CSRMatrix
from ..spmv.schedule import Schedule
from .arch import Architecture
from .model import PerfModel, X_BYTES_PER_LOAD

PLACEMENTS = ("local_only", "first_touch", "interleaved")
DEFAULT_REMOTE_PENALTY = 1.7


class NumaModel(PerfModel):
    """Performance model with a two-socket NUMA surcharge on x traffic."""

    def __init__(self, arch: Architecture, placement: str = "first_touch",
                 remote_penalty: float = DEFAULT_REMOTE_PENALTY,
                 **kwargs) -> None:
        if placement not in PLACEMENTS:
            raise ArchitectureError(
                f"unknown placement {placement!r}; pick from {PLACEMENTS}")
        if remote_penalty < 1.0:
            raise ArchitectureError(
                f"remote_penalty must be >= 1, got {remote_penalty}")
        super().__init__(arch, **kwargs)
        self.placement = placement
        self.remote_penalty = remote_penalty

    def _remote_fraction(self, a: CSRMatrix, schedule: Schedule,
                         t: int) -> float:
        """Fraction of thread t's x accesses served by the other socket."""
        if self.arch.sockets < 2 or self.placement == "local_only":
            return 0.0
        if self.placement == "interleaved":
            return 0.5
        # first touch: x pages owned by the thread whose block initialised
        # them; accesses inside the thread's own column block are local,
        # the rest split evenly between the sockets
        lo, hi = schedule.thread_entry_range(t)
        if lo == hi:
            return 0.0
        cols = a.colidx[lo:hi]
        block = a.ncols / schedule.nthreads
        own_lo = t * block
        own_hi = (t + 1) * block
        local = np.count_nonzero((cols >= own_lo) & (cols < own_hi))
        remote_share = 1.0 - local / cols.size
        return 0.5 * remote_share

    def _thread_time(self, a: CSRMatrix, schedule: Schedule, t: int,
                     resid: float, reuse=None, prev=None) -> tuple:
        base_time, x_loads, bytes_t = super()._thread_time(
            a, schedule, t, resid, reuse=reuse, prev=prev)
        frac = self._remote_fraction(a, schedule, t)
        if frac == 0.0 or x_loads == 0:
            return base_time, x_loads, bytes_t
        # surcharge: remote x bytes cost (penalty - 1) extra, paid on
        # the DRAM-side share of the traffic
        x_bytes = X_BYTES_PER_LOAD * x_loads
        dram_bw = (self.arch.per_thread_bandwidth(schedule.nthreads)
                   * 0.77)
        extra = (self.remote_penalty - 1.0) * frac * x_bytes \
            * (1.0 - resid) / dram_bw
        return base_time + extra, x_loads, bytes_t
