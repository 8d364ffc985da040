"""Serving invariants: the daemon vs a naive unbatched oracle.

The serving path adds queueing, coalescing and admission in front of
the advisor; none of it may change *answers*.  This suite boots a real
daemon on a loopback port, replays a canned seeded trace, and checks:

* ``serving-answers-every-request`` — open-loop replay of the canned
  trace loses nothing: every request gets a structured response (an
  answer or a reject), never a hung or dropped connection.
* ``serving-matches-unbatched-oracle`` — every 200 response is
  bit-identical to a direct :meth:`Advisor.advise` call on a *fresh*
  advisor (separate caches), i.e. batching is invisible.
* ``serving-batches-requests`` — the canned burst actually coalesces
  (mean batch size > 1); a daemon that degenerates to one-request
  batches pays one executor hop per request.
* ``metricsz-schema`` — ``/metricsz`` carries the SLO quantities
  (p50/p95/p99 monotone, batch histogram consistent, shed counters
  present) that dashboards and the bench gate key on.
* ``reject-schema`` — a starved token bucket produces the documented
  structured 429 (status/code/reason/retry_after_ms), not a bare
  error.

Training a model is the expensive part; one model per seed is memoised
at module level so the mutation smoke (which runs this suite three
times) stays fast.
"""

from __future__ import annotations

from ..obs.log import get_logger
from .findings import CheckReport

log = get_logger("check")

SUITE = "serving"

#: canned-trace shape: small enough for CI, bursty enough to coalesce
TRACE_N = 24
TRACE_RATE = 500.0

_MODEL_CACHE: dict = {}


def _trained_model(seed: int):
    """One small trained model per seed (memoised: training dominates)."""
    if seed not in _MODEL_CACHE:
        from ..advisor import train_model
        from ..generators import build_corpus
        from ..machine import get_architecture

        corpus = build_corpus("tiny", seed=seed)[:4]
        arch = get_architecture("Rome")
        model = train_model(corpus=corpus, architectures=[arch],
                            orderings=("RCM", "Gray"), seed=seed)
        _MODEL_CACHE[seed] = (corpus, arch, model)
    return _MODEL_CACHE[seed]


def _check_replay(report: CheckReport, corpus, arch, model,
                  seed: int) -> None:
    from ..advisor import Advisor
    from ..serve import (ServeConfig, generate_trace, replay,
                         start_in_thread)
    from ..serve.protocol import advice_to_wire

    names = [e.name for e in corpus]
    trace = generate_trace(names, n=TRACE_N, seed=seed,
                           rate=TRACE_RATE)
    advisor = Advisor(model)
    config = ServeConfig(port=0, rate=None, max_batch=16,
                         drain_timeout=1.0)
    with start_in_thread(advisor, corpus, config) as handle:
        result = replay(trace, port=handle.port, arch=arch.name,
                        timeout=3.0)
        metrics = _fetch_metrics(handle)

    report.check(
        result.answered == len(trace)
        and result.transport_failures == 0,
        SUITE, "serving-answers-every-request",
        f"trace seed={seed} n={len(trace)}",
        f"answered {result.answered}/{len(trace)} request(s), "
        f"{result.transport_failures} transport failure(s)")

    # a fresh advisor: the oracle must not share the daemon's caches
    oracle = Advisor(model)
    by_name = {e.name: e for e in corpus}
    mismatches = []
    for req in trace:
        report.case()
        body = result.responses.get(req.id)
        if body is None:
            continue  # already reported above
        e = by_name[req.matrix]
        expected = advice_to_wire(
            oracle.advise(e.matrix, arch, matrix_name=e.name))
        if body["advice"] != expected:
            mismatches.append(req.id)
    if mismatches:
        report.fail(
            SUITE, "serving-matches-unbatched-oracle",
            f"trace seed={seed}",
            f"{len(mismatches)} of {len(trace)} response(s) differ "
            f"from the unbatched oracle (ids {mismatches[:5]})")

    batch = metrics["slo"]["batch"]
    report.check(
        batch["mean_size"] > 1.0, SUITE, "serving-batches-requests",
        f"trace seed={seed} rate={TRACE_RATE:.0f}rps",
        f"mean batch size {batch['mean_size']} over "
        f"{batch['batches']} batch(es) — the burst never coalesced")

    _check_metrics_schema(report, metrics)


def _fetch_metrics(handle) -> dict:
    from ..serve import ServeClient

    with ServeClient(handle.host, handle.port) as client:
        return client.metricsz()


def _check_metrics_schema(report: CheckReport, metrics: dict) -> None:
    subject = "/metricsz"
    slo = metrics.get("slo", {})
    for key in ("uptime_seconds", "requests", "responses", "errors",
                "latency_ms", "queue_wait_ms", "batch", "shed"):
        report.check(key in slo, SUITE, "metricsz-schema", subject,
                     f"slo is missing {key!r}: {sorted(slo)}")
    lat = slo.get("latency_ms", {})
    have = all(k in lat for k in ("count", "mean", "p50", "p95",
                                  "p99", "max"))
    report.check(have, SUITE, "metricsz-schema", subject,
                 f"latency_ms is missing quantiles: {sorted(lat)}")
    if have:
        report.check(
            0 <= lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"],
            SUITE, "metricsz-schema", subject,
            f"latency quantiles not monotone: p50={lat['p50']} "
            f"p95={lat['p95']} p99={lat['p99']} max={lat['max']}")
    batch = slo.get("batch", {})
    hist = batch.get("histogram", {})
    report.check(
        sum(hist.get("counts", [])) == batch.get("batches", -1),
        SUITE, "metricsz-schema", subject,
        f"batch histogram counts {hist.get('counts')} do not sum to "
        f"batches={batch.get('batches')}")
    report.check(
        set(slo.get("shed", {})) == {"rate_limited", "queue_full",
                                     "draining"},
        SUITE, "metricsz-schema", subject,
        f"shed counters are {sorted(slo.get('shed', {}))}")
    report.check(
        isinstance(metrics.get("metrics"), dict)
        and isinstance(metrics.get("advisor"), dict),
        SUITE, "metricsz-schema", subject,
        "raw 'metrics' / 'advisor' sections missing")


def _check_reject_schema(report: CheckReport, corpus, arch,
                         model) -> None:
    from ..advisor import Advisor
    from ..serve import ServeClient, ServeConfig, start_in_thread

    advisor = Advisor(model)
    config = ServeConfig(port=0, rate=0.001, burst=1.0,
                         drain_timeout=1.0)
    with start_in_thread(advisor, corpus, config) as handle, \
            ServeClient(handle.host, handle.port) as client:
        e = corpus[0]
        first, _ = client.advise(e.name, arch=arch.name,
                                 client="starved")
        status, body = client.advise(e.name, arch=arch.name,
                                     client="starved",
                                     request_id="r2")

    subject = "rate=0.001 burst=1"
    report.check(first == 200, SUITE, "reject-schema", subject,
                 f"the first request should pass the full bucket, "
                 f"got {first}")
    report.check(status == 429, SUITE, "reject-schema", subject,
                 f"the second request should be shed, got {status}")
    report.check(
        body.get("status") == "rejected" and body.get("code") == 429
        and body.get("reason") == "rate_limited"
        and body.get("id") == "r2"
        and isinstance(body.get("retry_after_ms"), (int, float))
        and body.get("retry_after_ms", 0) > 0,
        SUITE, "reject-schema", subject,
        f"reject body violates the documented schema: {body}")


def check_serving(seed: int = 0) -> CheckReport:
    """Boot a real daemon and verify the serving invariants."""
    report = CheckReport(suites=[SUITE])
    corpus, arch, model = _trained_model(seed)
    _check_replay(report, corpus, arch, model, seed)
    _check_reject_schema(report, corpus, arch, model)
    return report
