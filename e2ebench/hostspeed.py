"""Host-speed calibration for CPU-bound timings.

The benchmark runs on shared machines whose effective CPU speed
switches by up to half within seconds and drifts over minutes
(neighbours on the same cores), which moves every CPU-bound timing
with it.  A fixed calibration kernel — interpreter work, small numpy
calls, and gathers over a cache-sized working set, the mix the
measured code runs — is timed between operations, so it sees the host
the operations saw.  Operations are reported at their fastest repeat,
so a run's *slowdown* is its fastest kernel time over the nominal one;
dividing by it reports timings in nominal-host units, which a program
change moves and host drift mostly does not.  Timings dominated by
waiting (the serving workload's latencies) are not CPU-bound and are
reported unscaled.
"""

from __future__ import annotations

import time

import numpy as np

#: fastest kernel time on an unloaded 2-vCPU x86-64 host; sets the
#: scale of normalised timings, which read as plain seconds there
NOMINAL_SECONDS = 0.0017

_RNG = np.random.default_rng(0)
#: a 1.6 MB vector and random gather indices into it, like the x-vector
#: reads of an SpMV on a scrambled matrix
_X = _RNG.random(200_000)
_IDX = _RNG.integers(0, _X.size, size=100_000)
_KEYS = _RNG.random(20_000)


def kernel_seconds() -> float:
    """Time one run of the calibration kernel: interpreter work on
    small objects, many small numpy calls, and gathers, scatters and a
    sort over a working set larger than a core's private caches."""
    t0 = time.perf_counter()
    counts: dict = {}
    for i in range(5_000):
        counts[i % 97] = counts.get(i % 97, 0) + 1
    a = np.arange(100.0)
    for _ in range(100):
        a = np.sqrt(a * a + 1.0)
    y = _X[_IDX]
    np.bincount(_IDX, weights=y, minlength=_X.size)
    np.argsort(_KEYS)
    return time.perf_counter() - t0


class HostSpeed:
    """Calibration samples taken while one phase of a run executes."""

    def __init__(self) -> None:
        self.samples: list = []

    def sample(self, n: int = 1) -> None:
        self.samples.extend(kernel_seconds() for _ in range(n))

    def slowdown(self) -> float:
        """Fastest kernel time over nominal (1.0 when never sampled)."""
        if not self.samples:
            return 1.0
        return min(self.samples) / NOMINAL_SECONDS
