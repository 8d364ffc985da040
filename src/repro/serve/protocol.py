"""The wire protocol of the advisor daemon: JSON over HTTP/1.1.

One request shape, three response shapes.  A client POSTs an *advise
request* to ``/advise``::

    {"id": 17, "matrix": "roadnet", "arch": "Milan B", "kernel": "1d",
     "workload": "cg", "iterations": 10000, "top": 3, "client": "c0"}

``workload`` (optional, default ``"spmv"``) picks what runs per
scheduled iteration — plain SpMV, a CG/Jacobi solver loop, SpGEMM or
SpMM — and must name an entry of
:data:`repro.spmv.registry.WORKLOADS`.

``matrix`` names an entry of the daemon's resident corpus — the daemon
is an *advisor*, not a matrix transport; shipping CSR payloads per
request would dwarf the answer it returns.  ``arch`` defaults to the
daemon's configured default architecture; ``iterations``/``top`` are
optional per-request overrides; ``client`` is the admission-control
identity (the peer address when omitted).

Responses (always ``application/json``):

* **ok** — ``{"id", "status": "ok", "advice": [{"ordering",
  "predicted_speedup", "confidence"}, ...], "batch_size",
  "queue_ms"}``.  ``advice`` is bit-identical to what a direct
  :meth:`repro.advisor.service.Advisor.advise` call returns (floats
  round-trip exactly through ``json``); ``batch_size``/``queue_ms``
  describe the micro-batch that served the request.
* **rejected** — ``{"id", "status": "rejected", "code": 429|503,
  "reason": "rate_limited"|"queue_full"|"draining",
  "retry_after_ms"}`` (admission control said no; see
  :mod:`repro.serve.admission`).
* **error** — ``{"id", "status": "error", "code": 400|404|500,
  "reason", "detail"}`` (malformed request, unknown matrix/arch,
  or a serving fault).

``GET /healthz`` and ``GET /metricsz`` return liveness and the SLO
snapshot documented in ``docs/serving.md``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from ..errors import ReproError
from ..spmv.registry import DEFAULT_WORKLOAD, KERNELS, WORKLOADS

__all__ = [
    "AdviseRequest", "ProtocolError", "advice_to_wire", "error_body",
    "ok_body", "parse_advise_request", "reject_body",
]

#: keys an advise request may carry; anything else is a client bug we
#: surface early instead of silently ignoring
_ALLOWED_KEYS = frozenset(
    {"id", "matrix", "arch", "kernel", "iterations", "top", "client",
     "trace", "workload"})


class ProtocolError(ReproError):
    """A malformed advise request (maps to a 400 error response)."""


@dataclass(frozen=True)
class AdviseRequest:
    """One parsed, validated advise request."""

    id: object                 # echoed back verbatim (any JSON scalar)
    matrix: str
    arch: str | None           # None -> daemon default architecture
    kernel: str
    iterations: float | None
    top: int | None
    client: str
    #: distributed-tracing context: ``trace_id``/``parent_id`` arrive
    #: in the optional ``trace`` request object (the client's ids);
    #: ``span_id`` is the *server-side* request span id the daemon
    #: assigns, so batcher/advisor spans can parent to it
    trace_id: str | None = None
    parent_id: str | None = None
    span_id: str | None = None
    #: what runs per scheduled iteration (plain SpMV, a CG/Jacobi
    #: solver loop, SpGEMM or SpMM); the default preserves the
    #: pre-workload wire behaviour for old clients
    workload: str = DEFAULT_WORKLOAD


def _reject_constant(literal: str):
    # json.loads accepts NaN/Infinity/-Infinity, which are not JSON:
    # echoed back they would make the response body invalid too
    raise ProtocolError(f"non-finite number {literal} is not valid JSON")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ProtocolError(f"number {text} overflows a double")
    return value


def parse_advise_request(body: bytes, peer: str = "") -> AdviseRequest:
    """Decode and validate a ``POST /advise`` body.

    Raises :class:`ProtocolError` with a human-readable reason on any
    schema violation, non-finite numbers included; the daemon turns
    that into a 400 response.
    """
    try:
        data = json.loads(body, parse_constant=_reject_constant,
                          parse_float=_finite_float)
    except (ValueError, UnicodeDecodeError) as e:
        raise ProtocolError(f"body is not valid JSON: {e}") from None
    if not isinstance(data, dict):
        raise ProtocolError(
            f"request must be a JSON object, got {type(data).__name__}")
    unknown = set(data) - _ALLOWED_KEYS
    if unknown:
        raise ProtocolError(
            f"unknown request key(s) {sorted(unknown)}; "
            f"allowed: {sorted(_ALLOWED_KEYS)}")
    matrix = data.get("matrix")
    if not isinstance(matrix, str) or not matrix:
        raise ProtocolError("'matrix' must be a non-empty string")
    kernel = data.get("kernel", "1d")
    if kernel not in KERNELS:
        raise ProtocolError(
            f"'kernel' must be one of {KERNELS}, got {kernel!r}")
    workload = data.get("workload", DEFAULT_WORKLOAD)
    if workload not in WORKLOADS:
        raise ProtocolError(
            f"'workload' must be one of {WORKLOADS}, got {workload!r}")
    arch = data.get("arch")
    if arch is not None and not isinstance(arch, str):
        raise ProtocolError("'arch' must be a string when present")
    iterations = data.get("iterations")
    if iterations is not None:
        if not isinstance(iterations, (int, float)) \
                or isinstance(iterations, bool) or iterations <= 0:
            raise ProtocolError(
                f"'iterations' must be a positive number, "
                f"got {iterations!r}")
        try:
            iterations = float(iterations)
        except OverflowError:
            raise ProtocolError(
                "'iterations' overflows a double") from None
    top = data.get("top")
    if top is not None:
        if not isinstance(top, int) or isinstance(top, bool) or top < 1:
            raise ProtocolError(
                f"'top' must be a positive integer, got {top!r}")
    client = data.get("client")
    if client is not None and not isinstance(client, str):
        raise ProtocolError("'client' must be a string when present")
    trace = data.get("trace")
    trace_id = parent_id = None
    if trace is not None:
        if not isinstance(trace, dict):
            raise ProtocolError(
                "'trace' must be an object with optional "
                "'trace_id'/'parent_id' strings")
        unknown_trace = set(trace) - {"trace_id", "parent_id"}
        if unknown_trace:
            raise ProtocolError(
                f"unknown trace key(s) {sorted(unknown_trace)}; "
                "allowed: ['parent_id', 'trace_id']")
        trace_id = trace.get("trace_id")
        parent_id = trace.get("parent_id")
        for label, value in (("trace_id", trace_id),
                             ("parent_id", parent_id)):
            if value is not None and not isinstance(value, str):
                raise ProtocolError(
                    f"'trace.{label}' must be a string when present")
    return AdviseRequest(id=data.get("id"), matrix=matrix, arch=arch,
                         kernel=kernel, iterations=iterations, top=top,
                         client=client or peer or "anonymous",
                         trace_id=trace_id, parent_id=parent_id,
                         workload=workload)


# ----------------------------------------------------------------------
# response bodies
# ----------------------------------------------------------------------
def advice_to_wire(advice) -> list:
    """Serialise a ranked :class:`~repro.advisor.model.Advice` list."""
    return [{"ordering": a.ordering,
             "predicted_speedup": a.predicted_speedup,
             "confidence": a.confidence} for a in advice]


def ok_body(request_id, advice, batch_size: int,
            queue_ms: float) -> dict:
    return {"id": request_id, "status": "ok",
            "advice": advice_to_wire(advice),
            "batch_size": int(batch_size),
            "queue_ms": round(float(queue_ms), 3)}


def reject_body(request_id, code: int, reason: str,
                retry_after_ms: float) -> dict:
    return {"id": request_id, "status": "rejected", "code": int(code),
            "reason": reason,
            "retry_after_ms": round(float(retry_after_ms), 3)}


def error_body(request_id, code: int, reason: str, detail: str) -> dict:
    return {"id": request_id, "status": "error", "code": int(code),
            "reason": reason, "detail": detail}
