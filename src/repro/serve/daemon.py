"""The always-on advisor daemon: asyncio HTTP front end.

``AdvisorDaemon`` turns the :class:`repro.advisor.service.Advisor`
library into a service: one warm advisor (feature cache + advice
cache) shared across every client, requests coalesced by a
:class:`repro.serve.batching.MicroBatcher` into micro-batches that one
executor thread advises in arrival order, admission control in front
(:mod:`repro.serve.admission`) and SLO metrics behind
(:data:`repro.obs.REGISTRY`).

The HTTP layer is a deliberately small HTTP/1.1 subset on raw
``asyncio`` streams — stdlib only, keep-alive by default, three
routes:

* ``POST /advise``   — the serving path (:mod:`repro.serve.protocol`)
* ``GET  /healthz``  — liveness + drain state
* ``GET  /metricsz`` — SLO snapshot: request p50/p95/p99, batch-size
  histogram, queue wait, shed counts, plus the raw ``serve.*`` /
  ``advisor.*`` registry entries

Lifecycle: ``start()`` binds the socket (port 0 picks a free port),
``serve_forever()`` parks until shutdown, SIGTERM/SIGINT (or
``begin_shutdown()``) *drains*: the listener closes, queued requests
still get answers, new advise requests are rejected with a 503
``draining`` reply, and connections that outlive ``drain_timeout`` are
cancelled.  Tests and benches run the whole thing on a background
thread via :func:`start_in_thread`.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
import threading
import time
from dataclasses import dataclass, replace

from ..machine.arch import get_architecture
from ..obs.log import get_logger
from ..obs.metrics import REGISTRY, snapshot_quantile
from ..obs.trace import TRACER, new_span_id, trace_context
from .admission import AdmissionController
from .batching import MicroBatcher
from .protocol import (ProtocolError, error_body, ok_body,
                       parse_advise_request, reject_body)

__all__ = ["AdvisorDaemon", "DaemonHandle", "ServeConfig",
           "start_in_thread"]

log = get_logger("serve")

_REQUESTS = REGISTRY.counter("serve.requests")
_RESPONSES = REGISTRY.counter("serve.responses")
_ERRORS = REGISTRY.counter("serve.errors")
_SHED_DRAIN = REGISTRY.counter("serve.shed.draining")
_LATENCY = REGISTRY.histogram("serve.request_seconds")

_STATUS_TEXT = {200: "OK", 400: "Bad Request", 404: "Not Found",
                405: "Method Not Allowed", 413: "Content Too Large",
                429: "Too Many Requests", 500: "Internal Server Error",
                503: "Service Unavailable"}

#: largest request body the daemon reads; an /advise body is well
#: under 1 KiB, so anything bigger is refused before it is read
MAX_BODY_BYTES = 64 * 1024


@dataclass(frozen=True)
class ServeConfig:
    """Daemon knobs; defaults match docs/serving.md."""

    host: str = "127.0.0.1"
    port: int = 0                  # 0 = pick a free port
    default_arch: str = "Milan B"  # for requests that omit "arch"
    max_batch: int = 32
    queue_depth: int = 128         # admission shed threshold
    rate: float | None = 50.0      # per-client tokens/second
    burst: float = 20.0            # per-client bucket capacity
    drain_timeout: float = 5.0     # grace period on shutdown


class AdvisorDaemon:
    """One warm advisor behind a micro-batching asyncio HTTP server."""

    def __init__(self, advisor, corpus, config: ServeConfig | None = None):
        """``corpus`` is a list of :class:`~repro.generators.suite.
        CorpusEntry` (or any objects with ``.name``/``.matrix``) —
        the matrices this daemon is willing to advise on."""
        self.config = config or ServeConfig()
        self.advisor = advisor
        self.entries = {e.name: e for e in corpus}
        self.admission = AdmissionController(
            rate=self.config.rate, burst=self.config.burst,
            max_queue_depth=self.config.queue_depth)
        self.batcher = MicroBatcher(self._flush,
                                    max_batch=self.config.max_batch)
        self._server: asyncio.Server | None = None
        self._conn_tasks: set = set()
        self._draining = False
        self._stopped: asyncio.Event | None = None
        self._started_at = time.monotonic()
        self._baseline: dict = {}
        # resolve the default arch eagerly: a typo should fail at
        # startup, not on the first request
        get_architecture(self.config.default_arch)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._stopped = asyncio.Event()
        self.batcher.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port)
        self._started_at = time.monotonic()
        self._baseline = REGISTRY.snapshot()
        log.info("advisor daemon listening on %s:%d "
                 "(%d matrices, max_batch=%d)",
                 self.config.host, self.port, len(self.entries),
                 self.config.max_batch)

    @property
    def port(self) -> int:
        if self._server is None or not self._server.sockets:
            raise RuntimeError("daemon is not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def draining(self) -> bool:
        return self._draining

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → graceful drain (CLI mode; must run on the
        main thread's event loop)."""
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                sig, lambda s=sig: asyncio.ensure_future(
                    self.begin_shutdown(reason=signal.Signals(s).name)))

    async def begin_shutdown(self, reason: str = "shutdown") -> None:
        """Drain: stop listening, answer the queue, then stop.

        Idempotent; connections still open after ``drain_timeout``
        seconds are cancelled so a stuck client cannot wedge the
        process.
        """
        if self._draining:
            return
        self._draining = True
        log.info("draining on %s: %d queued request(s), %d open "
                 "connection(s)", reason, self.batcher.depth,
                 len(self._conn_tasks))
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        try:
            await asyncio.wait_for(self.batcher.close(),
                                   self.config.drain_timeout)
        except asyncio.TimeoutError:
            log.warning("drain timed out after %.1fs; cancelling the "
                        "batcher", self.config.drain_timeout)
        tasks = set(self._conn_tasks)
        if tasks:
            # keep-alive connections park in readline() waiting for a
            # request that will never come — give in-flight responses
            # a moment, then cut them loose
            _done, pending = await asyncio.wait(
                tasks, timeout=self.config.drain_timeout)
            for task in pending:
                task.cancel()
        if self._stopped is not None:
            self._stopped.set()
        log.info("advisor daemon stopped (%d request(s) served)",
                 _RESPONSES.value)

    async def serve_forever(self) -> None:
        if self._stopped is None:
            raise RuntimeError("call start() first")
        await self._stopped.wait()

    # ------------------------------------------------------------------
    # the batched serving path
    # ------------------------------------------------------------------
    async def _flush(self, requests: list) -> list:
        """MicroBatcher callback: advise one batch, off-loop.

        The whole (CPU-bound) batch runs on the loop's default executor
        so the event loop keeps accepting requests meanwhile.
        """
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self._advise_batch,
                                          requests)

    def _advise_batch(self, requests: list) -> list:
        """One ranked advice list per request, in arrival order."""
        results = []
        for req in requests:
            entry = self.entries[req.matrix]
            arch = get_architecture(req.arch or self.config.default_arch)
            # under the request's trace context the advisor.request span
            # parents to its serve.request span: one causal chain per
            # request across the batch
            ctx = (trace_context(req.trace_id, req.span_id)
                   if req.span_id else contextlib.nullcontext())
            with ctx:
                results.append(self.advisor.advise(
                    entry.matrix, arch, req.kernel,
                    matrix_name=entry.name, iterations=req.iterations,
                    workload=req.workload))
        return results

    async def _advise(self, body: bytes, peer: str) -> tuple:
        """(http_status, response_body_dict) for one POST /advise."""
        t0 = time.perf_counter()
        _REQUESTS.inc()
        try:
            req = parse_advise_request(body, peer=peer)
        except ProtocolError as e:
            _ERRORS.inc()
            return 400, error_body(None, 400, "bad_request", str(e))
        if not TRACER.enabled:
            return await self._advise_admitted(req, t0)
        # the asyncio request path times its span explicitly (coroutines
        # interleave on one thread, so the tracer's thread-local nesting
        # stack cannot express "this request"); the span_id stored on
        # the request is what batcher and advisor spans parent to
        sid = new_span_id()
        req = replace(req, span_id=sid,
                      trace_id=req.trace_id or f"req-{sid}")
        status, payload = await self._advise_admitted(req, t0)
        span_args = {"status": status, "matrix": req.matrix,
                     "client": req.client}
        if req.parent_id:
            # the client's enclosing span lives in another process;
            # record the cross-process link under its own key so a
            # server-only trace is not full of "orphaned" parent ids
            span_args["remote_parent"] = req.parent_id
        TRACER.record_span("serve.request", t0,
                           time.perf_counter() - t0, span_id=sid,
                           trace_id=req.trace_id, **span_args)
        return status, payload

    async def _advise_admitted(self, req, t0: float) -> tuple:
        """Everything after parsing: validation, admission, batching."""
        if req.matrix not in self.entries:
            _ERRORS.inc()
            return 404, error_body(
                req.id, 404, "unknown_matrix",
                f"matrix {req.matrix!r} is not in the resident corpus "
                f"({len(self.entries)} entries)")
        if req.arch is not None:
            try:
                get_architecture(req.arch)
            except Exception as e:  # noqa: BLE001 — client data
                _ERRORS.inc()
                return 400, error_body(req.id, 400, "unknown_arch",
                                       str(e))
        if self._draining:
            _SHED_DRAIN.inc()
            return 503, reject_body(req.id, 503, "draining", 1000.0)
        rejection = self.admission.admit(req.client, self.batcher.depth)
        if rejection is not None:
            return rejection.http_status, reject_body(
                req.id, rejection.http_status, rejection.reason,
                rejection.retry_after_ms)
        enqueued = time.perf_counter()
        try:
            advice, batch_size = await self.batcher.submit(req)
        except Exception as e:  # noqa: BLE001 — a batch fault must
            _ERRORS.inc()           # answer, not hang, the client
            log.exception("advise batch failed")
            return 500, error_body(req.id, 500, "serving_fault", str(e))
        queue_ms = (time.perf_counter() - enqueued) * 1e3
        if req.top is not None:
            advice = advice[:req.top]
        _RESPONSES.inc()
        _LATENCY.observe(time.perf_counter() - t0)
        return 200, ok_body(req.id, advice, batch_size, queue_ms)

    # ------------------------------------------------------------------
    # introspection routes
    # ------------------------------------------------------------------
    def _healthz(self) -> dict:
        return {
            "status": "draining" if self._draining else "ok",
            "uptime_seconds": round(time.monotonic() - self._started_at,
                                    3),
            "corpus": len(self.entries),
            "queue_depth": self.batcher.depth,
            "model_rows": self.advisor.model.trained_on.get("rows"),
        }

    def _metricsz(self) -> dict:
        """The SLO snapshot: deltas since *this* daemon started."""
        delta = REGISTRY.delta_since(self._baseline)

        def hist(name: str) -> dict:
            entry = delta.get(name)
            if entry is None or entry.get("type") != "histogram":
                return {"type": "histogram", "count": 0, "sum": 0.0,
                        "max": 0.0, "bounds": [], "counts": []}
            return entry

        def counter(name: str) -> int:
            entry = delta.get(name, {})
            return int(entry.get("value", 0)) \
                if entry.get("type") == "counter" else 0

        lat = hist("serve.request_seconds")
        wait = hist("serve.queue_wait_seconds")
        batch = hist("serve.batch_size")
        slo = {
            "uptime_seconds": round(time.monotonic() - self._started_at,
                                    3),
            "requests": counter("serve.requests"),
            "responses": counter("serve.responses"),
            "errors": counter("serve.errors"),
            "latency_ms": {
                "count": lat["count"],
                "mean": round(lat["sum"] / lat["count"] * 1e3, 3)
                if lat["count"] else 0.0,
                "p50": round(snapshot_quantile(lat, 0.50) * 1e3, 3),
                "p95": round(snapshot_quantile(lat, 0.95) * 1e3, 3),
                "p99": round(snapshot_quantile(lat, 0.99) * 1e3, 3),
                "max": round(lat["max"] * 1e3, 3),
            },
            "queue_wait_ms": {
                "count": wait["count"],
                "p50": round(snapshot_quantile(wait, 0.50) * 1e3, 3),
                "p99": round(snapshot_quantile(wait, 0.99) * 1e3, 3),
            },
            "batch": {
                "batches": batch["count"],
                "mean_size": round(batch["sum"] / batch["count"], 3)
                if batch["count"] else 0.0,
                "max_size": batch["max"],
                "histogram": {"bounds": batch["bounds"],
                              "counts": batch["counts"]},
            },
            "shed": {
                "rate_limited": counter("serve.shed.rate_limited"),
                "queue_full": counter("serve.shed.queue_full"),
                "draining": counter("serve.shed.draining"),
            },
        }
        metrics = {name: entry for name, entry in delta.items()
                   if name.startswith(("serve.", "advisor."))}
        # tracer buffer occupancy: a saturated trace sidecar shows up
        # here as dropped_events > 0 instead of silently losing spans
        return {"slo": slo, "metrics": metrics,
                "advisor": self.advisor.stats,
                "trace": TRACER.stats}

    # ------------------------------------------------------------------
    # the HTTP/1.1 subset
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        peername = writer.get_extra_info("peername")
        peer = f"{peername[0]}:{peername[1]}" if peername else "unknown"
        try:
            while True:
                request_line = await reader.readline()
                if not request_line or request_line in (b"\r\n", b"\n"):
                    break
                try:
                    method, path, _version = \
                        request_line.decode("ascii").split()
                except ValueError:
                    await self._respond(
                        writer, 400,
                        error_body(None, 400, "bad_request",
                                   "malformed request line"))
                    break
                headers = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    key, _, value = line.decode("latin1").partition(":")
                    headers[key.strip().lower()] = value.strip()
                raw_length = headers.get("content-length") or "0"
                # ASCII digits only: int() also takes "-5", "+5", "1_0"
                if not (raw_length.isascii() and raw_length.isdigit()):
                    await self._respond(
                        writer, 400,
                        error_body(None, 400, "bad_request",
                                   f"malformed Content-Length "
                                   f"{raw_length!r}"))
                    break
                length = int(raw_length)
                if length > MAX_BODY_BYTES:
                    await self._respond(
                        writer, 413,
                        error_body(None, 413, "payload_too_large",
                                   f"body of {length} bytes exceeds "
                                   f"{MAX_BODY_BYTES}"))
                    break
                body = await reader.readexactly(length) if length else b""
                keep_alive = headers.get(
                    "connection", "keep-alive").lower() != "close"
                status, payload = await self._dispatch(method, path,
                                                       body, peer)
                await self._respond(writer, status, payload,
                                    keep_alive=keep_alive)
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionResetError,
                BrokenPipeError):
            pass  # client went away mid-request; nothing to answer
        except asyncio.CancelledError:
            # our own drain-timeout cancel: exit cleanly so the task
            # does not end up "cancelled with unretrieved exception"
            pass
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            # a cancelled task raises CancelledError (a BaseException)
            # at its next await — swallow it here too, the connection
            # is already going away
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await writer.wait_closed()

    async def _dispatch(self, method: str, path: str, body: bytes,
                        peer: str) -> tuple:
        path = path.split("?", 1)[0]
        if path == "/advise":
            if method != "POST":
                return 405, error_body(None, 405, "method_not_allowed",
                                       "POST /advise")
            return await self._advise(body, peer)
        if path == "/healthz":
            if method != "GET":
                return 405, error_body(None, 405, "method_not_allowed",
                                       "GET /healthz")
            return 200, self._healthz()
        if path == "/metricsz":
            if method != "GET":
                return 405, error_body(None, 405, "method_not_allowed",
                                       "GET /metricsz")
            return 200, self._metricsz()
        return 404, error_body(None, 404, "unknown_route",
                               f"no route {path!r} (have /advise, "
                               "/healthz, /metricsz)")

    @staticmethod
    async def _respond(writer: asyncio.StreamWriter, status: int,
                       payload: dict, keep_alive: bool = False) -> None:
        body = json.dumps(payload).encode("utf-8")
        head = (f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'OK')}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: {'keep-alive' if keep_alive else 'close'}"
                "\r\n\r\n").encode("ascii")
        writer.write(head + body)
        await writer.drain()


# ----------------------------------------------------------------------
# embedding helper: run the daemon on a background thread
# ----------------------------------------------------------------------
class DaemonHandle:
    """A started background daemon: ``.port`` to talk, ``.stop()`` to
    drain; usable as a context manager."""

    def __init__(self, daemon: AdvisorDaemon, loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread) -> None:
        self.daemon = daemon
        self._loop = loop
        self._thread = thread
        self.port = daemon.port
        self.host = daemon.config.host

    def stop(self, timeout: float = 10.0) -> None:
        if self._thread.is_alive():
            asyncio.run_coroutine_threadsafe(
                self.daemon.begin_shutdown(reason="handle.stop"),
                self._loop)
            self._thread.join(timeout)
            if self._thread.is_alive():  # pragma: no cover - fail loud
                raise RuntimeError("daemon thread failed to stop")

    def __enter__(self) -> "DaemonHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def start_in_thread(advisor, corpus,
                    config: ServeConfig | None = None,
                    timeout: float = 10.0) -> DaemonHandle:
    """Boot an :class:`AdvisorDaemon` on a daemonized thread and wait
    until it accepts connections.  Tests, benches and the check suite
    all use this to get a real network round trip without a second
    process."""
    started = threading.Event()
    box: dict = {}

    async def main() -> None:
        daemon = AdvisorDaemon(advisor, corpus, config)
        await daemon.start()
        box["daemon"] = daemon
        box["loop"] = asyncio.get_running_loop()
        started.set()
        await daemon.serve_forever()

    def run() -> None:
        try:
            asyncio.run(main())
        except Exception as e:  # pragma: no cover - startup failure
            box["error"] = e
            started.set()

    thread = threading.Thread(target=run, name="advisor-daemon",
                              daemon=True)
    thread.start()
    if not started.wait(timeout) or "daemon" not in box:
        raise RuntimeError(
            f"daemon failed to start: {box.get('error')}")
    return DaemonHandle(box["daemon"], box["loop"], thread)
