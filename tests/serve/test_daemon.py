"""End-to-end daemon tests: real sockets, concurrent clients.

The contract under test is the acceptance bar of the serving
subsystem: batched responses are *bit-identical* to direct
``Advisor.advise`` answers, SIGTERM drains instead of dropping,
admission rejects carry the structured schema, and ``/metricsz``
exposes the SLO quantities.
"""

from __future__ import annotations

import asyncio
import json
import signal
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.advisor import Advisor
from repro.machine import get_architecture
from repro.serve import ServeClient, ServeConfig, start_in_thread
from repro.serve.client import post_json
from repro.serve.protocol import ProtocolError, advice_to_wire

from .conftest import ARCH_NAME


def open_daemon(advisor, corpus, **overrides):
    config = ServeConfig(port=0, rate=None, **overrides)
    return start_in_thread(advisor, corpus, config)


def direct_answers(oracle, corpus, arch):
    """id -> wire-format advice straight from the library path."""
    return {e.name: advice_to_wire(
        oracle.advise(e.matrix, arch, matrix_name=e.name))
        for e in corpus}


def test_concurrent_clients_get_bit_identical_answers(
        advisor, oracle, corpus, arch):
    expected = direct_answers(oracle, corpus, arch)
    with open_daemon(advisor, corpus, max_batch=8) as handle:

        def one_client(i: int):
            with ServeClient("127.0.0.1", handle.port,
                             timeout=10.0) as client:
                entry = corpus[i % len(corpus)]
                status, body = client.advise(
                    entry.name, arch=ARCH_NAME, request_id=i,
                    client=f"t{i % 3}")
                return entry.name, status, body

        with ThreadPoolExecutor(max_workers=12) as pool:
            outcomes = list(pool.map(one_client, range(24)))

    for name, status, body in outcomes:
        assert status == 200
        assert body["status"] == "ok"
        # floats round-trip exactly through JSON: equality here is
        # bit-identity with the direct library call
        assert body["advice"] == expected[name]
        assert body["batch_size"] >= 1
        assert body["queue_ms"] >= 0.0


def test_response_echoes_id_and_honors_top(advisor, corpus):
    with open_daemon(advisor, corpus) as handle:
        with ServeClient("127.0.0.1", handle.port) as client:
            status, body = client.advise(
                corpus[0].name, arch=ARCH_NAME,
                request_id="req-00042", top=1)
    assert status == 200
    assert body["id"] == "req-00042"
    assert len(body["advice"]) == 1


def test_error_responses(advisor, corpus):
    with open_daemon(advisor, corpus) as handle:
        with ServeClient("127.0.0.1", handle.port) as client:
            status, body = client.advise("no-such-matrix")
            assert status == 404
            assert body["status"] == "error"
            assert body["reason"] == "unknown_matrix"

            status, body = client.advise(corpus[0].name,
                                         arch="No Such Arch")
            assert status == 400 and body["reason"] == "unknown_arch"

            status, body = client.request(
                "POST", "/advise", {"matrix": corpus[0].name,
                                    "bogus_key": 1})
            assert status == 400 and body["reason"] == "bad_request"

            status, body = client.request("GET", "/nope")
            assert status == 404 and body["reason"] == "unknown_route"

            status, body = client.request("GET", "/advise")
            assert status == 405


def test_healthz_and_metricsz_schema(advisor, corpus):
    with open_daemon(advisor, corpus, max_batch=4) as handle:
        with ServeClient("127.0.0.1", handle.port) as client:
            for i in range(6):
                status, _ = client.advise(corpus[i % len(corpus)].name,
                                          arch=ARCH_NAME)
                assert status == 200

            health = client.healthz()
            assert health["status"] == "ok"
            assert health["corpus"] == len(corpus)
            assert health["uptime_seconds"] >= 0

            metrics = client.metricsz()

    slo = metrics["slo"]
    assert slo["requests"] >= 6 and slo["responses"] >= 6
    lat = slo["latency_ms"]
    for key in ("count", "mean", "p50", "p95", "p99", "max"):
        assert key in lat
    assert 0 <= lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"]
    batch = slo["batch"]
    assert batch["batches"] >= 1
    assert batch["mean_size"] >= 1.0
    assert batch["histogram"]["bounds"] == [1, 2, 4, 8, 16, 32, 64,
                                            128, 256]
    assert sum(batch["histogram"]["counts"]) == batch["batches"]
    shed = slo["shed"]
    assert set(shed) == {"rate_limited", "queue_full", "draining"}
    assert "queue_wait_ms" in slo
    # raw registry entries ride along for repro.obs tooling
    assert any(name.startswith("serve.") for name in metrics["metrics"])
    assert "advisor" in metrics
    # the whole payload is JSON-serialisable (it travelled over HTTP)
    json.dumps(metrics)


def test_admission_reject_schema_and_isolation(advisor, corpus):
    """An exhausted client gets the structured 429; others sail on."""
    with start_in_thread(
            advisor, corpus,
            ServeConfig(port=0, rate=0.001, burst=2.0)) as handle:
        with ServeClient("127.0.0.1", handle.port) as client:
            statuses = []
            for i in range(4):
                status, body = client.advise(
                    corpus[0].name, arch=ARCH_NAME, client="greedy",
                    request_id=i)
                statuses.append((status, body))
            # bucket burst is 2: the tail of the run is rejected
            oks = [s for s, _ in statuses if s == 200]
            rejects = [(s, b) for s, b in statuses if s != 200]
            assert len(oks) == 2 and len(rejects) == 2
            for status, body in rejects:
                assert status == 429
                assert body["status"] == "rejected"
                assert body["reason"] == "rate_limited"
                assert body["code"] == 429
                assert body["retry_after_ms"] > 0
            # a different client identity is not throttled
            status, body = client.advise(corpus[1].name,
                                         arch=ARCH_NAME,
                                         client="polite")
            assert status == 200

            metrics = client.metricsz()
            assert metrics["slo"]["shed"]["rate_limited"] == 2


class GatedAdvisor(Advisor):
    """An advisor whose ``advise`` holds until ``gate`` opens, so a
    test can keep a batch in flight without any timer."""

    def __init__(self, model) -> None:
        super().__init__(model)
        self.entered = threading.Event()
        self.gate = threading.Event()

    def advise(self, *args, **kwargs):
        self.entered.set()
        if not self.gate.wait(10.0):
            raise TimeoutError("gate never opened")
        return super().advise(*args, **kwargs)


#: one micro-batch mixing archs (``None`` = the daemon default),
#: both kernels, two workloads and iteration budgets
MIXED = [
    (0, ARCH_NAME, "1d", "spmv", None),
    (1, "Milan B", "2d", "jacobi", None),
    (2, None, "1d", "jacobi", 1000.0),
    (0, ARCH_NAME, "2d", "spmv", 50.0),
    (3, "Milan B", "1d", "spmv", None),
    (1, ARCH_NAME, "2d", "jacobi", 1000.0),
]


def test_mixed_batch_matches_direct_advise(model, corpus):
    """A held batch lets the next one queue up mixed; every answer in
    it equals a direct advise() call on a fresh advisor."""
    advisor = GatedAdvisor(model)
    with open_daemon(advisor, corpus, max_batch=32) as handle:

        def one_request(spec):
            i, arch, kernel, workload, iterations = spec
            with ServeClient("127.0.0.1", handle.port,
                             timeout=10.0) as client:
                return client.advise(corpus[i].name, arch=arch,
                                     kernel=kernel, workload=workload,
                                     iterations=iterations)

        with ThreadPoolExecutor(max_workers=len(MIXED) + 1) as pool:
            try:
                held = pool.submit(one_request, MIXED[0])
                assert advisor.entered.wait(10.0)
                mixed = [pool.submit(one_request, spec)
                         for spec in MIXED]
                for _ in range(1000):
                    if handle.daemon.batcher.depth == len(MIXED):
                        break
                    time.sleep(0.005)
                assert handle.daemon.batcher.depth == len(MIXED)
            finally:
                advisor.gate.set()
            assert held.result(timeout=10.0)[0] == 200
            outcomes = [f.result(timeout=10.0) for f in mixed]

    fresh = Advisor(model)
    for (i, arch, kernel, workload, iterations), (status, body) in \
            zip(MIXED, outcomes):
        assert status == 200
        assert body["batch_size"] == len(MIXED)
        expected = fresh.advise(
            corpus[i].matrix,
            get_architecture(arch or ServeConfig.default_arch),
            kernel, matrix_name=corpus[i].name, iterations=iterations,
            workload=workload)
        assert body["advice"] == advice_to_wire(expected)


def test_sigterm_drains_inflight_requests(model, oracle, corpus, arch):
    """SIGTERM mid-burst: queued requests still answered bit-identically,
    the daemon exits, and late requests cannot connect."""
    expected = direct_answers(oracle, corpus, arch)
    outcomes = []
    errors = []
    advisor = GatedAdvisor(model)

    async def scenario() -> None:
        from repro.serve.daemon import AdvisorDaemon

        daemon = AdvisorDaemon(
            advisor, corpus,
            ServeConfig(port=0, rate=None, max_batch=8,
                        drain_timeout=5.0))
        await daemon.start()
        daemon.install_signal_handlers()
        port = daemon.port

        def client_burst() -> None:
            try:
                with ServeClient("127.0.0.1", port,
                                 timeout=10.0) as client:
                    for i in range(6):
                        entry = corpus[i % len(corpus)]
                        outcomes.append(
                            (entry.name,
                             *client.advise(entry.name,
                                            arch=ARCH_NAME)))
            except Exception as e:  # noqa: BLE001 - recorded for assert
                errors.append(e)

        burst = threading.Thread(target=client_burst)
        burst.start()
        # SIGTERM lands while the first request's batch is held in
        # advise; the handler runs on this main thread's loop
        loop = asyncio.get_running_loop()
        assert await loop.run_in_executor(None, advisor.entered.wait,
                                          10.0)
        signal.raise_signal(signal.SIGTERM)
        for _ in range(1000):
            if daemon.draining:
                break
            await asyncio.sleep(0.001)
        assert daemon.draining
        advisor.gate.set()
        await daemon.serve_forever()
        burst.join(10.0)
        assert not burst.is_alive()

    try:
        asyncio.run(scenario())
    finally:
        advisor.gate.set()
    assert not errors, f"drain dropped a client: {errors[:1]}"
    assert len(outcomes) == 6
    for name, status, body in outcomes:
        # every request got a real answer (drained) or a structured
        # draining reject — never a dropped connection
        if status == 200:
            assert body["advice"] == expected[name]
        else:
            assert status == 503 and body["reason"] == "draining"
    # at least the first request predates the SIGTERM and must be served
    assert outcomes[0][1] == 200


def _strict_json(literal: str):
    raise ValueError(f"{literal} is not JSON")


def _raw_post(port: int, content_length: str, body: bytes = b"") -> tuple:
    """POST /advise with a hand-written Content-Length and body; reads
    until the daemon closes the connection (a hang times out) and
    returns (status, body parsed as strict JSON)."""
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=5.0) as sock:
        sock.sendall(
            f"POST /advise HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {content_length}\r\n"
            f"Connection: close\r\n\r\n".encode() + body)
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(body, parse_constant=_strict_json)


@pytest.mark.parametrize("content_length,status,reason", [
    ("abc", 400, "bad_request"),
    ("-5", 400, "bad_request"),
    ("99999999999", 413, "payload_too_large"),
])
def test_malformed_content_length_is_answered(advisor, corpus,
                                              content_length, status,
                                              reason):
    """A bad Content-Length gets a structured answer and the connection
    closes: no dropped socket, no hang waiting for a body."""
    with open_daemon(advisor, corpus) as handle:
        got_status, body = _raw_post(handle.port, content_length)
        assert got_status == status
        assert body["status"] == "error"
        assert body["code"] == status and body["reason"] == reason
        # the daemon survives and keeps serving
        with ServeClient("127.0.0.1", handle.port) as client:
            assert client.healthz()["status"] == "ok"


@pytest.mark.parametrize("field,literal", [
    ("iterations", "NaN"),
    ("iterations", "Infinity"),
    ("iterations", "-Infinity"),
    ("id", "NaN"),
    ("iterations", "1e400"),
    ("id", "1e400"),
    pytest.param("iterations", "1" + "0" * 400, id="iterations-1e400-int"),
])
def test_non_finite_numbers_are_rejected(advisor, corpus, field,
                                         literal):
    """json.loads takes NaN/Infinity and overflows 1e400 to inf: the
    daemon refuses them with a strict-JSON 400 instead of serving
    (and echoing) a non-finite value."""
    body = (f'{{"matrix": "{corpus[0].name}", '
            f'"{field}": {literal}}}').encode()
    with open_daemon(advisor, corpus) as handle:
        status, reply = _raw_post(handle.port, str(len(body)), body)
    assert status == 400
    assert reply["status"] == "error" and reply["reason"] == "bad_request"
    assert "non-finite" in reply["detail"] \
        or "overflows" in reply["detail"]


@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf")])
def test_clients_refuse_non_finite_numbers_before_sending(
        advisor, corpus, value):
    """Both clients encode strict JSON: a non-finite number is a
    ProtocolError on the client, and no request reaches the daemon."""
    name = corpus[0].name
    with open_daemon(advisor, corpus) as handle:
        with ServeClient("127.0.0.1", handle.port) as client:
            with pytest.raises(ProtocolError, match="strict JSON"):
                client.advise(name, iterations=value)
            with pytest.raises(ProtocolError, match="strict JSON"):
                asyncio.run(post_json("127.0.0.1", handle.port,
                                      "/advise", {"matrix": name,
                                                  "iterations": value}))
            slo = client.metricsz()["slo"]
    assert slo["requests"] == 0


def test_port_zero_picks_a_free_port(advisor, corpus):
    with open_daemon(advisor, corpus) as a, \
            open_daemon(advisor, corpus) as b:
        assert a.port != b.port
        assert ServeClient("127.0.0.1", a.port).healthz()["status"] \
            == "ok"


def test_startup_rejects_unknown_default_arch(advisor, corpus):
    from repro.serve.daemon import AdvisorDaemon

    with pytest.raises(Exception, match="[Aa]rch"):
        AdvisorDaemon(advisor, corpus,
                      ServeConfig(default_arch="Quantum Z"))
