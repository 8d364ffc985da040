"""repro.obs.profiler — a stdlib-only sampling profiler.

A `signal.setitimer` interval timer delivers a signal every
``interval`` seconds; the handler walks the interrupted frame's
``f_back`` chain and counts one sample against that call stack,
prefixed with the open *span* names from the tracer's thread-local
stack (``span:<name>`` pseudo-frames), so self-time lands on the same
tree ``repro report`` renders from traces.  Output is the collapsed
stack format (``a;b;c <count>`` lines) consumed by ``flamegraph.pl``
and https://speedscope.app.

Two timers:

* ``prof`` (default) — ``ITIMER_PROF``/``SIGPROF`` ticks on consumed
  CPU time (user+sys).  Attribution matches "where the cycles went"
  and it cannot collide with the engine's per-cell ``SIGALRM``
  deadline timer.
* ``real`` — ``ITIMER_REAL``/``SIGALRM`` ticks on wall clock; use it
  for sleep-dominated workloads (the serve daemon idles in the event
  loop), but never around an engine run with ``--timeout``.

Constraints inherited from the signal module: the profiler must be
started on the **main thread** (CPython only delivers signals there),
and it samples that thread's frames.  Sweep worker *processes* are
separate interpreters — profile them by profiling an inline
(``--jobs 1``) run, which executes the same task code.

Overhead is one handler call per interval: a frame walk plus one dict
update, no allocation proportional to run time beyond distinct
stacks.  ``benchmarks/bench_obs_overhead.py`` gates the deterministic
bound (samples x per-sample handler cost) at < 5 % of wall time.
"""

from __future__ import annotations

import os
import signal
import threading
import time

from . import trace as trace_mod
from .log import get_logger

__all__ = ["SamplingProfiler", "ProfilerError", "add_profile_parser"]

log = get_logger("profiler")


class ProfilerError(RuntimeError):
    pass


#: timer name -> (itimer constant, signal delivered)
_TIMERS = {
    "prof": (signal.ITIMER_PROF, signal.SIGPROF),
    "real": (signal.ITIMER_REAL, signal.SIGALRM),
}


def _frame_label(code) -> str:
    base = os.path.basename(code.co_filename)
    if base.endswith(".py"):
        base = base[:-3]
    return f"{base}:{code.co_name}"


class SamplingProfiler:
    """Context manager sampling the main thread's call stack.

    ``counts`` maps a root-first stack tuple (span pseudo-frames, then
    code frames) to its sample count; ``samples`` is the total.
    """

    def __init__(self, interval: float = 0.005, timer: str = "prof",
                 max_depth: int = 64, track_spans: bool = True) -> None:
        if timer not in _TIMERS:
            raise ProfilerError(
                f"unknown timer {timer!r} (expected prof or real)")
        if interval <= 0:
            raise ProfilerError(f"interval must be > 0, got {interval}")
        self.interval = float(interval)
        self.timer = timer
        self.max_depth = max_depth
        self.track_spans = track_spans
        self.counts: dict = {}
        self.samples = 0
        self.wall_seconds = 0.0
        self._t0: float | None = None
        self._prev_handler = None

    # -- the handler ---------------------------------------------------
    def _sample(self, signum, frame) -> None:
        self.samples += 1
        stack = []
        f, depth = frame, 0
        while f is not None and depth < self.max_depth:
            stack.append(_frame_label(f.f_code))
            f = f.f_back
            depth += 1
        stack.reverse()
        spans = tuple("span:" + name for name, _sid
                      in trace_mod.current_span_stack())
        key = spans + tuple(stack)
        self.counts[key] = self.counts.get(key, 0) + 1

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> "SamplingProfiler":
        if threading.current_thread() is not threading.main_thread():
            raise ProfilerError(
                "the sampling profiler must start on the main thread "
                "(CPython delivers signals there)")
        itimer, sig = _TIMERS[self.timer]
        if self.track_spans and not trace_mod.is_enabled():
            trace_mod.track_stacks(True)
        self._prev_handler = signal.signal(sig, self._sample)
        self._t0 = time.perf_counter()
        signal.setitimer(itimer, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> bool:
        itimer, sig = _TIMERS[self.timer]
        signal.setitimer(itimer, 0.0)
        self.wall_seconds += time.perf_counter() - self._t0
        if self._prev_handler is not None:
            signal.signal(sig, self._prev_handler)
            self._prev_handler = None
        if self.track_spans:
            trace_mod.track_stacks(False)
        return False

    # -- output --------------------------------------------------------
    def collapsed(self) -> list:
        """``"frame;frame;frame count"`` lines (flamegraph.pl input)."""
        return [";".join(key) + f" {n}"
                for key, n in sorted(self.counts.items())]

    def save(self, path: str) -> int:
        lines = self.collapsed()
        with open(path, "wt") as f:
            for line in lines:
                f.write(line + "\n")
        return len(lines)

    def self_times(self) -> dict:
        """Samples attributed to each stack's innermost code frame."""
        out: dict = {}
        for key, n in self.counts.items():
            leaf = key[-1] if key else "(unknown)"
            out[leaf] = out.get(leaf, 0) + n
        return out

    def span_times(self) -> dict:
        """Samples attributed to each stack's innermost open span."""
        out: dict = {}
        for key, n in self.counts.items():
            name = "(no span)"
            for part in reversed(key):
                if part.startswith("span:"):
                    name = part[5:]
                    break
            out[name] = out.get(name, 0) + n
        return out

    def render_top(self, k: int = 15) -> str:
        from ..util import format_table

        if not self.samples:
            return ("profile: 0 samples — the workload finished inside "
                    "one interval (or consumed no CPU under the 'prof' "
                    "timer; try --timer real)")

        def table(title: str, counts: dict) -> str:
            rows = sorted(counts.items(), key=lambda kv: -kv[1])[:k]
            body = [[label, n, f"{100.0 * n / self.samples:.1f}%",
                     f"{n * self.interval:.3f}"]
                    for label, n in rows]
            return title + "\n" + format_table(
                ["where", "samples", "share", "~seconds"], body)

        head = (f"profile: {self.samples} samples at "
                f"{self.interval * 1e3:.1f}ms ({self.timer} timer), "
                f"{self.wall_seconds:.2f}s wall")
        return "\n\n".join([head,
                            table("self-time by span", self.span_times()),
                            table("self-time by function",
                                  self.self_times())])


# ----------------------------------------------------------------------
# CLI: repro profile <command ...>
# ----------------------------------------------------------------------
def _cmd_profile(args) -> int:
    from ..harness.cli import build_parser

    command = [c for c in args.command if c != "--"]
    if not command:
        log.error("profile: give a repro command to run, e.g. "
                  "'repro profile sweep --tier tiny'")
        return 2
    if command[0] == "profile":
        log.error("profile: cannot profile itself")
        return 2
    inner = build_parser().parse_args(command)
    profiler = SamplingProfiler(interval=args.interval, timer=args.timer)
    with profiler:
        rc = inner.func(inner)
    n = profiler.save(args.out)
    print(profiler.render_top(args.top))
    log.info("wrote %s (%d stacks; feed to flamegraph.pl or "
             "speedscope.app)", args.out, n)
    return rc


def add_profile_parser(sub) -> None:
    p = sub.add_parser(
        "profile",
        help="run any repro command under the sampling profiler and "
             "write collapsed (flamegraph) stacks")
    p.add_argument("--out", default="profile.collapsed",
                   help="collapsed-stack output file")
    p.add_argument("--interval", type=float, default=0.005,
                   help="sampling interval in seconds")
    p.add_argument("--timer", default="prof", choices=("prof", "real"),
                   help="prof = CPU time (default), real = wall clock "
                        "(for sleep-dominated workloads)")
    p.add_argument("--top", type=int, default=15,
                   help="rows in the printed self-time tables")
    p.add_argument("command", nargs="...",
                   help="the repro command line to profile")
    p.set_defaults(func=_cmd_profile)
