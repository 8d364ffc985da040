"""Span tracer serialising to Chrome trace-event JSON and JSONL.

One call site::

    from repro.obs import span

    with span("reorder", algo="RCM", matrix="stencil2d"):
        ...

Spans nest (per-thread), are thread-safe, and use the monotonic
``time.perf_counter`` clock — on Linux that is ``CLOCK_MONOTONIC``,
which is system-wide, so spans recorded in sweep worker *processes*
line up with the parent's on a common time axis.

Tracing is **disabled by default** and the disabled path is a no-op
fast path: ``span(...)`` performs one attribute check and returns a
shared singleton context manager — no allocation, no clock read, no
lock (``benchmarks/bench_obs_overhead.py`` gates the overhead at
< 5 % of an uninstrumented run).

When enabled, every finished span becomes one Chrome *complete* event
(``"ph": "X"``) with microsecond ``ts``/``dur``, the recording
process id and thread id, and the span's keyword attributes under
``args``.  :meth:`Tracer.save` writes the
``{"traceEvents": [...]}`` JSON object format, loadable directly in
Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``; enabling
with ``jsonl_path`` additionally appends each event as one JSON line
to an append-only log the moment it finishes, so a killed process
loses at most a torn final line (the same contract as the sweep
journal).

Worker shipping: a sweep worker drains its buffered events with
:meth:`Tracer.drain` into the task outcome; the engine merges them
with :meth:`Tracer.merge`.  Because events carry their own ``pid``,
a merged trace shows one lane per worker.

Cross-process correlation: a **trace context** installed with
:func:`set_trace_context` (or the :func:`trace_context` manager)
makes every span record three extra ``args`` — a process-unique
``span_id``, the ``parent_id`` of the enclosing span (the context's
parent when the thread's stack is empty, e.g. in a fresh worker
process or advisor pool thread), and the context's ``trace_id``.
Merged traces then form one causally-linked tree per request/sweep
instead of disjoint per-process event soups; without a context the
event schema is unchanged.  Code that cannot use the thread-local
nesting stack (the asyncio serving path interleaves coroutines on one
thread) times its spans itself and records them with explicit ids via
:meth:`Tracer.record_span`.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextlib import contextmanager

__all__ = ["Tracer", "TRACER", "span", "enable", "disable", "is_enabled",
           "new_span_id", "current_span_stack", "set_trace_context",
           "get_trace_context", "clear_trace_context", "trace_context",
           "track_stacks", "sidecar_path"]

#: schema constants for one Chrome complete event
_REQUIRED_KEYS = ("name", "ph", "ts", "dur", "pid", "tid")

#: per-process monotonic span-id counter (pid-prefixed ids stay unique
#: across the processes of a merged trace; fork inherits the counter
#: value but never the pid, so children cannot collide with the parent)
_IDS = itertools.count(1)

#: thread-local span stack + trace context
_TLS = threading.local()

#: when True, ``span()`` maintains the thread-local stack even with
#: tracing disabled (the sampling profiler attributes samples to it)
_STACK_TRACKING = False


def new_span_id() -> str:
    """A process-unique span id, safe to mix across merged processes."""
    return f"{os.getpid():x}-{next(_IDS):x}"


def _span_stack() -> list:
    stack = getattr(_TLS, "stack", None)
    if stack is None:
        stack = _TLS.stack = []
    return stack


def current_span_stack() -> list:
    """``[(name, span_id), ...]`` of the calling thread's open spans,
    outermost first.  ``span_id`` is ``None`` outside a trace context."""
    return list(_span_stack())


def set_trace_context(trace_id: str, parent_id: str | None = None) -> None:
    """Install ``(trace_id, parent_id)`` for the calling thread.

    While set, every span records ``span_id``/``parent_id``/``trace_id``
    args; a span opened on an empty stack parents to ``parent_id`` —
    the cross-process link a sweep worker or advisor pool thread uses
    to hang its spans under the engine's / request's root span.
    """
    _TLS.ctx = (trace_id, parent_id)


def get_trace_context() -> tuple | None:
    return getattr(_TLS, "ctx", None)


def clear_trace_context() -> None:
    _TLS.ctx = None


@contextmanager
def trace_context(trace_id: str, parent_id: str | None = None):
    """Scoped :func:`set_trace_context`; restores the previous context."""
    previous = get_trace_context()
    set_trace_context(trace_id, parent_id)
    try:
        yield
    finally:
        _TLS.ctx = previous


def track_stacks(on: bool) -> None:
    """Maintain the span stack even while tracing is disabled (the
    profiler turns this on so samples can be attributed to spans
    without paying for event recording)."""
    global _STACK_TRACKING
    _STACK_TRACKING = bool(on)


class _NopSpan:
    """The shared disabled-tracing span: enters and exits for free."""

    __slots__ = ()

    def __enter__(self) -> "_NopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> "_NopSpan":
        return self


_NOP = _NopSpan()


class _StackSpan:
    """Stack bookkeeping without event recording (profiler mode)."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def set(self, **attrs) -> "_StackSpan":
        return self

    def __enter__(self) -> "_StackSpan":
        _span_stack().append((self.name, None))
        return self

    def __exit__(self, *exc) -> bool:
        stack = _span_stack()
        if stack:
            stack.pop()
        return False


class _LiveSpan:
    """One enabled span; records a complete ("X") event on exit."""

    __slots__ = ("_tracer", "name", "args", "_t0", "span_id")

    def __init__(self, tracer: "Tracer", name: str, args: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.args = args

    def set(self, **attrs) -> "_LiveSpan":
        """Attach attributes discovered mid-span (e.g. a result size)."""
        self.args.update(attrs)
        return self

    def __enter__(self) -> "_LiveSpan":
        # ids are assigned only under a trace context, so traces from
        # plain (uncorrelated) runs keep the original event schema
        self.span_id = (new_span_id()
                        if getattr(_TLS, "ctx", None) is not None else None)
        _span_stack().append((self.name, self.span_id))
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        t1 = time.perf_counter()
        stack = _span_stack()
        if stack:
            stack.pop()
        if exc_type is not None:
            self.args["error"] = exc_type.__name__
        ids = None
        if self.span_id is not None:
            trace_id, ctx_parent = _TLS.ctx
            parent = None
            for _name, sid in reversed(stack):
                if sid is not None:
                    parent = sid
                    break
            ids = (self.span_id, parent or ctx_parent, trace_id)
        self._tracer._record(self.name, self._t0, t1 - self._t0,
                             self.args, ids=ids)
        return False


class Tracer:
    """Buffering span recorder with Chrome trace-event output."""

    #: in-RAM buffer cap; events past it are counted in ``dropped``
    #: (the JSONL sidecar, when enabled, still receives every event)
    DEFAULT_MAX_EVENTS = 1_000_000

    def __init__(self, enabled: bool = False,
                 max_events: int | None = None) -> None:
        self.enabled = enabled
        self.max_events = max_events or self.DEFAULT_MAX_EVENTS
        self.dropped = 0
        self._events: list = []
        self._lock = threading.Lock()
        self._jsonl_path: str | None = None
        self._jsonl_fh = None

    # -- recording -----------------------------------------------------
    def span(self, name: str, **args):
        """A context manager timing one named span.

        The disabled fast path returns a shared no-op singleton; keep
        this call on hot paths only if the work inside dwarfs one
        attribute check (the engine's per-cell spans qualify).
        """
        if not self.enabled:
            return _NOP
        return _LiveSpan(self, name, args)

    def instant(self, name: str, **args) -> None:
        """Record a zero-duration marker event."""
        if self.enabled:
            self._record(name, time.perf_counter(), 0.0, args, ph="i")

    def record_span(self, name: str, t0: float, dur: float,
                    span_id: str | None = None,
                    parent_id: str | None = None,
                    trace_id: str | None = None, **args) -> None:
        """Record one already-timed span with explicit correlation ids.

        The asyncio serving path cannot use the thread-local nesting
        stack (coroutines interleave on one thread), so it times its
        spans itself and records them here with explicit parent links.
        """
        if not self.enabled:
            return
        ids = None
        if span_id or parent_id or trace_id:
            ids = (span_id, parent_id, trace_id)
        self._record(name, t0, dur, args, ids=ids)

    def _record(self, name: str, t0: float, dur: float, args: dict,
                ph: str = "X", ids=None) -> None:
        if ids is not None:
            span_id, parent_id, trace_id = ids
            args = dict(args)
            if span_id:
                args["span_id"] = span_id
            if parent_id:
                args["parent_id"] = parent_id
            if trace_id:
                args["trace_id"] = trace_id
        event = {
            "name": name, "ph": ph, "cat": "repro",
            "ts": round(t0 * 1e6, 3), "dur": round(dur * 1e6, 3),
            "pid": os.getpid(), "tid": threading.get_ident(),
        }
        if ph == "i":
            event.pop("dur")
            event["s"] = "p"  # process-scoped instant
        if args:
            event["args"] = args
        with self._lock:
            if len(self._events) < self.max_events:
                self._events.append(event)
            else:
                self.dropped += 1
            if self._jsonl_fh is not None:
                self._write_jsonl(event)

    def _write_jsonl(self, event: dict) -> None:
        """Append one event to the JSONL sidecar (called under the
        lock; a seam so the mutation smoke can corrupt sidecar events
        without touching the in-RAM buffer)."""
        self._jsonl_fh.write(json.dumps(event) + "\n")
        self._jsonl_fh.flush()

    # -- buffers ---------------------------------------------------------
    def events(self) -> list:
        with self._lock:
            return list(self._events)

    def drain(self) -> list:
        """Pop and return every buffered event (worker shipping)."""
        with self._lock:
            events, self._events = self._events, []
            return events

    def merge(self, events) -> None:
        """Append events shipped from another tracer (another process)."""
        if not events:
            return
        events = list(events)
        with self._lock:
            room = self.max_events - len(self._events)
            if room < len(events):
                self.dropped += len(events) - max(0, room)
                events = events[:max(0, room)]
            self._events.extend(events)

    def clear(self) -> None:
        self.drain()
        self.dropped = 0

    @property
    def stats(self) -> dict:
        """Buffer occupancy for ``/metricsz``: a saturated tracer is
        visible (``dropped_events`` > 0) instead of silent."""
        with self._lock:
            buffered = len(self._events)
        return {"enabled": self.enabled, "buffered_events": buffered,
                "max_events": self.max_events,
                "dropped_events": self.dropped,
                "jsonl_path": self._jsonl_path}

    # -- lifecycle -------------------------------------------------------
    def enable(self, jsonl_path: str | None = None) -> None:
        """Turn tracing on, optionally mirroring events to a JSONL log."""
        if jsonl_path:
            self._jsonl_path = jsonl_path
            self._jsonl_fh = open(jsonl_path, "at")
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False
        if self._jsonl_fh is not None:
            self._jsonl_fh.close()
            self._jsonl_fh = None
            self._jsonl_path = None

    # -- output ----------------------------------------------------------
    def save(self, path: str, extra_events=None) -> int:
        """Write the Chrome trace-event JSON object format.

        Returns the number of events written.  The buffer is *not*
        cleared, so a trace can be saved incrementally.
        """
        events = self.events()
        if extra_events:
            events = events + list(extra_events)
        events.sort(key=lambda e: (e.get("pid", 0), e.get("ts", 0.0)))
        with open(path, "wt") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": {"producer": "repro.obs"}}, f)
            f.write("\n")
        return len(events)


#: the process-global tracer; ``repro.obs.span`` records into it.
TRACER = Tracer()


def span(name: str, **args):
    """Module-level shorthand for ``TRACER.span`` (the common spelling
    at instrumentation sites)."""
    if TRACER.enabled:
        return _LiveSpan(TRACER, name, args)
    if _STACK_TRACKING:
        return _StackSpan(name)
    return _NOP


def enable(jsonl_path: str | None = None) -> None:
    TRACER.enable(jsonl_path)


def disable() -> None:
    TRACER.disable()


def is_enabled() -> bool:
    return TRACER.enabled


def sidecar_path(trace_path: str) -> str:
    """The crash-safe JSONL sidecar of a Chrome trace file:
    ``run.json`` → ``run.jsonl``, any other name gets ``.jsonl``
    appended (``run.trace`` → ``run.trace.jsonl``)."""
    if trace_path.endswith(".json"):
        return trace_path + "l"
    return trace_path + ".jsonl"
