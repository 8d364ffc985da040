"""repro.serve — the always-on advisor daemon.

The paper's end product is a *selection policy* — which reordering for
this matrix on this machine — and :mod:`repro.advisor` answers that as
a library call.  This package turns the answer into a service: a
long-running asyncio daemon that shares one warm advisor (feature
cache, advice cache) across every client, coalesces concurrent
requests into micro-batches that one executor thread advises in
arrival order, sheds load it cannot serve within its latency budget,
and reports SLOs (p50/p95/p99 latency, batch-size histogram, queue
wait, shed counts) through :mod:`repro.obs`.

Layers (each its own module):

* :mod:`.protocol`  — JSON-over-HTTP request/response shapes
* :mod:`.batching`  — the micro-batching queue (batches form from
  back-pressure, capped at max batch)
* :mod:`.admission` — per-client token buckets + queue-depth shedding
* :mod:`.daemon`    — the asyncio HTTP server, lifecycle (SIGTERM
  drain), ``/healthz`` + ``/metricsz``
* :mod:`.client`    — sync keep-alive client + async one-shot requests
* :mod:`.loadgen`   — deterministic zipf/bursty open-loop traffic
  replay
* :mod:`.cli`       — ``python -m repro serve`` / ``repro loadgen``

See ``docs/serving.md`` for the protocol and the knob reference, and
``benchmarks/bench_serving.py`` for the throughput/batching gate.
"""

from .admission import AdmissionController, Rejection, TokenBucket
from .batching import MicroBatcher
from .client import ServeClient, ServeUnavailable, post_json
from .daemon import AdvisorDaemon, DaemonHandle, ServeConfig, \
    start_in_thread
from .loadgen import LoadgenReport, TraceRequest, generate_trace, replay
from .protocol import AdviseRequest, ProtocolError, advice_to_wire, \
    parse_advise_request

__all__ = [
    "AdmissionController",
    "AdviseRequest",
    "AdvisorDaemon",
    "DaemonHandle",
    "LoadgenReport",
    "MicroBatcher",
    "ProtocolError",
    "Rejection",
    "ServeClient",
    "ServeConfig",
    "ServeUnavailable",
    "TokenBucket",
    "TraceRequest",
    "advice_to_wire",
    "generate_trace",
    "parse_advise_request",
    "post_json",
    "replay",
    "start_in_thread",
]
