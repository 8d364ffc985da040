"""Wall-clock timing helpers used to measure reordering overhead (Table 5).

The paper reports *serial* reordering times; we measure our own (also
serial) implementations the same way.  ``perf_counter`` is used because
reorderings run from milliseconds to minutes and we only need relative
comparisons between algorithms.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class Timer:
    """Context-manager stopwatch.

    >>> with Timer() as t:
    ...     _ = sum(range(1000))
    >>> t.elapsed >= 0.0
    True
    """

    elapsed: float = field(default=0.0)
    _start: float = field(default=0.0, repr=False)

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = time.perf_counter() - self._start
