"""Serving-path gate: the daemon must batch, not just answer.

Boots a real :class:`repro.serve.AdvisorDaemon` on a loopback port and
replays a seeded bursty trace (zipf popularity, open-loop arrivals)
against it.  The hard gates are **deterministic**:

1. every request is answered — no transport failures, no drops;
2. every 200 response is bit-identical to a direct, unbatched
   ``Advisor.advise`` call on a fresh advisor (batching must be
   invisible in the answers);
3. the burst actually coalesces: the server-side batch-size
   histogram has mean > 1 and at least one batch carried two or more
   requests (a daemon that degenerates to singleton batches pays one
   executor hop per request);
4. the /metricsz SLO section carries the latency quantiles and shed
   counters dashboards key on.

Throughput is also gated, but against a *conservative* floor (CI
machines are noisy): the tiny-tier daemon sustains well over 1000
requests/s locally, so a floor of 50/s only catches pathological
regressions (e.g. the batcher serialising on a timer or a lock).

Client-side latency percentiles and the server SLO snapshot land in
``benchmarks/output/<tier>/bench_serving.json``.
"""

from __future__ import annotations

from repro.advisor import Advisor, train_model
from repro.generators import build_corpus
from repro.machine import get_architecture
from repro.serve import (ServeClient, ServeConfig, generate_trace,
                         replay, start_in_thread)
from repro.serve.protocol import advice_to_wire
from repro.util import format_table

from conftest import SEED

ARCH_NAME = "Rome"
ORDERINGS = ("RCM", "Gray")
MATRICES = 4
REQUESTS = 120
RATE = 600.0
#: deliberately far below the ~1000+ rps the tiny tier sustains
THROUGHPUT_FLOOR_RPS = 50.0


def test_daemon_batches_and_answers_bit_identically(emit, emit_json):
    corpus = build_corpus("tiny", seed=SEED)[:MATRICES]
    arch = get_architecture(ARCH_NAME)
    model = train_model(corpus=corpus, architectures=[arch],
                        orderings=ORDERINGS, seed=SEED)
    advisor = Advisor(model)
    trace = generate_trace([e.name for e in corpus], n=REQUESTS,
                           seed=SEED, rate=RATE)
    config = ServeConfig(port=0, rate=None, max_batch=32)
    with start_in_thread(advisor, corpus, config) as handle:
        report = replay(trace, port=handle.port, arch=ARCH_NAME)
        with ServeClient(handle.host, handle.port) as client:
            metrics = client.metricsz()

    # -- gate 1: nothing lost ------------------------------------------
    assert report.transport_failures == 0, \
        f"{report.transport_failures} request(s) got no response"
    assert report.ok == REQUESTS, \
        (f"only {report.ok}/{REQUESTS} ok "
         f"(rejected={report.rejected}, errors={report.errors})")

    # -- gate 2: batching is invisible in the answers ------------------
    oracle = Advisor(model)  # fresh caches: a true unbatched reference
    by_name = {e.name: e for e in corpus}
    for req in trace:
        e = by_name[req.matrix]
        expected = advice_to_wire(
            oracle.advise(e.matrix, arch, matrix_name=e.name))
        got = report.responses[req.id]["advice"]
        assert got == expected, \
            (f"request {req.id} ({req.matrix}): served advice differs "
             f"from the unbatched oracle:\n  {got}\nvs\n  {expected}")

    # -- gate 3: the burst coalesced ------------------------------------
    slo = metrics["slo"]
    batch = slo["batch"]
    assert batch["mean_size"] > 1.0, \
        (f"mean batch size {batch['mean_size']} over "
         f"{batch['batches']} batch(es): the burst never coalesced")
    assert batch["max_size"] >= 2
    client_mean = (sum(report.batch_sizes) / len(report.batch_sizes))
    assert client_mean > 1.0  # clients see the same coalescing

    # -- gate 4: the SLO section is populated --------------------------
    lat = slo["latency_ms"]
    assert lat["count"] == REQUESTS
    assert 0 < lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"]
    assert set(slo["shed"]) == {"rate_limited", "queue_full",
                                "draining"}
    assert sum(slo["shed"].values()) == 0  # admission was off

    # -- conservative throughput floor ---------------------------------
    assert report.achieved_rps > THROUGHPUT_FLOOR_RPS, \
        (f"achieved {report.achieved_rps:.0f} rps < floor "
         f"{THROUGHPUT_FLOOR_RPS:.0f} rps on the tiny tier")

    artifact = {
        "seed": SEED,
        "matrices": MATRICES,
        "requests": REQUESTS,
        "offered_rps": report.to_dict()["offered_rps"],
        "achieved_rps": report.to_dict()["achieved_rps"],
        "client_latency_ms": report.latency_ms,
        "client_mean_batch_size": round(client_mean, 3),
        "server_slo": slo,
        "throughput_floor_rps": THROUGHPUT_FLOOR_RPS,
    }
    emit_json("bench_serving", artifact)
    rows = [
        ["requests", str(REQUESTS)],
        ["offered rps", f"{artifact['offered_rps']:.0f}"],
        ["achieved rps", f"{artifact['achieved_rps']:.0f}"],
        ["client p50 ms", f"{report.latency_ms['p50']:.2f}"],
        ["client p99 ms", f"{report.latency_ms['p99']:.2f}"],
        ["server p99 ms", f"{lat['p99']:.2f}"],
        ["mean batch", f"{batch['mean_size']:.2f}"],
        ["max batch", str(batch["max_size"])],
        ["batches", str(batch["batches"])],
    ]
    emit("bench_serving",
         "Serving gate: micro-batched daemon vs unbatched oracle\n"
         + format_table(["metric", "value"], rows))
