"""Cross-process trace correlation: every client request span must
transitively parent the daemon's request/queue/advisor spans.

The daemon runs in a thread here, so client and server share one
tracer buffer — the link checks below are exactly what
``repro perf merge-trace`` + ``repro report --check`` validate when
the two halves run in separate processes.
"""

from __future__ import annotations

import pytest

from repro.obs import trace as trace_mod
from repro.obs.report import validate_links
from repro.serve import ServeClient, ServeConfig, start_in_thread
from repro.serve.loadgen import generate_trace, replay
from repro.serve.protocol import ProtocolError, parse_advise_request

from .conftest import ARCH_NAME


@pytest.fixture(autouse=True)
def clean_tracer():
    trace_mod.TRACER.clear()
    yield
    trace_mod.disable()
    trace_mod.TRACER.clear()


def open_daemon(advisor, corpus, **overrides):
    config = ServeConfig(port=0, rate=None, **overrides)
    return start_in_thread(advisor, corpus, config)


# ----------------------------------------------------------------------
# protocol: the trace context rides the request envelope
# ----------------------------------------------------------------------
def _wire(payload: dict) -> bytes:
    import json

    return json.dumps(payload).encode()


def test_trace_context_parsed_from_wire():
    req = parse_advise_request(_wire({
        "matrix": "m", "trace": {"trace_id": "req-1",
                                 "parent_id": "abc"}}))
    assert req.trace_id == "req-1" and req.parent_id == "abc"
    assert req.span_id is None  # assigned server-side


def test_trace_context_optional_and_validated():
    assert parse_advise_request(_wire({"matrix": "m"})).trace_id is None
    with pytest.raises(ProtocolError):
        parse_advise_request(_wire({"matrix": "m",
                                    "trace": "not-a-dict"}))
    with pytest.raises(ProtocolError):
        parse_advise_request(_wire({"matrix": "m",
                                    "trace": {"trace_id": 7}}))
    with pytest.raises(ProtocolError):
        parse_advise_request(_wire({"matrix": "m",
                                    "trace": {"span_id": "mine"}}))


# ----------------------------------------------------------------------
# end to end: loadgen -> daemon -> batcher -> advisor
# ----------------------------------------------------------------------
def _events_by_name(events):
    out: dict = {}
    for ev in events:
        out.setdefault(ev["name"], []).append(ev)
    return out


@pytest.mark.slow
def test_request_spans_transitively_parent_server_work(
        advisor, corpus, corpus_names):
    trace_mod.enable()
    with open_daemon(advisor, corpus, max_batch=8) as handle:
        sched = generate_trace(corpus_names, n=12, seed=3, rate=500.0)
        report = replay(sched, port=handle.port, arch=ARCH_NAME,
                        timeout=10.0)
    assert report.transport_failures == 0
    assert report.ok == len(sched)

    events = trace_mod.TRACER.events()
    by_name = _events_by_name(events)
    for name in ("loadgen.request", "serve.request", "serve.queued",
                 "advisor.request"):
        assert len(by_name.get(name, [])) == len(sched), name

    # structurally valid links: no orphans, children inside parents
    assert validate_links(events) == []

    # the client's trace ids and the server's agree one for one
    client_tids = {ev["args"]["trace_id"]
                   for ev in by_name["loadgen.request"]}
    server_tids = {ev["args"]["trace_id"]
                   for ev in by_name["serve.request"]}
    assert client_tids == server_tids and len(client_tids) == len(sched)

    # serve.request records the client span as its remote parent
    client_sids = {ev["args"]["span_id"]
                   for ev in by_name["loadgen.request"]}
    assert {ev["args"]["remote_parent"]
            for ev in by_name["serve.request"]} == client_sids

    # queue and advisor spans chain to their serve.request span
    serve_sids = {ev["args"]["span_id"]
                  for ev in by_name["serve.request"]}
    parents = {ev["args"]["parent_id"] for ev in by_name["serve.queued"]}
    assert parents <= serve_sids
    by_id = {ev["args"]["span_id"]: ev for ev in events
             if ev.get("args", {}).get("span_id")}

    def root_of(ev):
        seen = 0
        while ev["args"].get("parent_id") and seen < 10:
            ev = by_id[ev["args"]["parent_id"]]
            seen += 1
        return ev

    for ev in by_name["advisor.request"]:
        assert root_of(ev)["name"] == "serve.request"


@pytest.mark.slow
def test_metricsz_exposes_tracer_stats(advisor, corpus):
    trace_mod.enable()
    with open_daemon(advisor, corpus) as handle:
        with ServeClient("127.0.0.1", handle.port,
                         timeout=10.0) as client:
            client.advise(corpus[0].name, arch=ARCH_NAME)
            metrics = client.metricsz()
    tr = metrics["trace"]
    assert tr["enabled"] is True
    assert tr["buffered_events"] > 0
    assert tr["dropped_events"] == 0
    assert set(tr) >= {"enabled", "buffered_events", "max_events",
                       "dropped_events"}


@pytest.mark.slow
def test_tracing_disabled_leaves_wire_and_spans_unchanged(
        advisor, corpus):
    assert not trace_mod.is_enabled()
    with open_daemon(advisor, corpus) as handle:
        with ServeClient("127.0.0.1", handle.port,
                         timeout=10.0) as client:
            status, body = client.advise(corpus[0].name, arch=ARCH_NAME)
            metrics = client.metricsz()
    assert status == 200 and body["status"] == "ok"
    assert trace_mod.TRACER.events() == []
    assert metrics["trace"]["enabled"] is False
