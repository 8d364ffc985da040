"""Trace generation determinism + open-loop replay integration."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.serve import ServeConfig, generate_trace, replay, start_in_thread

from .conftest import ARCH_NAME


def test_same_seed_same_trace(corpus_names):
    a = generate_trace(corpus_names, n=200, seed=7)
    b = generate_trace(corpus_names, n=200, seed=7)
    assert a == b


def test_different_seed_different_trace(corpus_names):
    a = generate_trace(corpus_names, n=200, seed=7)
    b = generate_trace(corpus_names, n=200, seed=8)
    assert a != b


def test_trace_shape(corpus_names):
    trace = generate_trace(corpus_names, n=100, seed=0, clients=3)
    assert len(trace) == 100
    assert [r.id for r in trace] == list(range(100))
    # arrival times strictly increase (exponential gaps are positive)
    times = [r.t for r in trace]
    assert all(t1 > t0 for t0, t1 in zip(times, times[1:]))
    assert {r.client for r in trace} <= {"c0", "c1", "c2"}
    assert set(r.matrix for r in trace) <= set(corpus_names)
    d = trace[0].to_dict()
    assert set(d) == {"id", "t", "matrix", "client"}


def test_zipf_popularity_skews_to_head(corpus_names):
    """Rank-1 matrices must dominate under a steep zipf exponent."""
    trace = generate_trace(corpus_names, n=2000, seed=1, zipf_s=2.0)
    counts = Counter(r.matrix for r in trace)
    head = counts[corpus_names[0]]
    tail = counts[corpus_names[-1]]
    assert head > tail
    assert head > len(trace) / len(corpus_names)  # above uniform share


def test_burst_factor_compresses_the_schedule(corpus_names):
    steady = generate_trace(corpus_names, n=500, seed=3, rate=100.0,
                            burst_factor=1.0)
    bursty = generate_trace(corpus_names, n=500, seed=3, rate=100.0,
                            burst_factor=8.0, burst_duty=1.0)
    # burst_duty=1.0 means the whole schedule runs at 8x rate
    assert bursty[-1].t == pytest.approx(steady[-1].t / 8.0)


def test_generate_trace_validates_arguments(corpus_names):
    with pytest.raises(ValueError):
        generate_trace([], n=10)
    with pytest.raises(ValueError):
        generate_trace(corpus_names, n=0)
    with pytest.raises(ValueError):
        generate_trace(corpus_names, n=10, rate=0.0)
    with pytest.raises(ValueError):
        generate_trace(corpus_names, n=10, burst_duty=0.0)


def test_replay_against_live_daemon(advisor, corpus, corpus_names):
    trace = generate_trace(corpus_names, n=40, seed=5, rate=400.0)
    config = ServeConfig(port=0, rate=None, max_batch=16)
    with start_in_thread(advisor, corpus, config) as handle:
        report = replay(trace, port=handle.port, arch=ARCH_NAME)
    assert report.requests == 40
    assert report.transport_failures == 0
    assert report.answered == 40
    assert report.ok == 40
    assert len(report.responses) == 40
    assert report.latency_ms["p50"] <= report.latency_ms["p99"]
    assert report.achieved_rps > 0
    d = report.to_dict()
    assert d["ok"] == 40 and d["mean_batch_size"] >= 1.0
    assert "ok=40" in report.render()


def test_replay_counts_rejections(advisor, corpus, corpus_names):
    """A starved token bucket shows up as structured rejects, not
    transport failures."""
    trace = generate_trace(corpus_names, n=30, seed=5, rate=2000.0,
                           clients=1)
    config = ServeConfig(port=0, rate=0.001, burst=3.0)
    with start_in_thread(advisor, corpus, config) as handle:
        report = replay(trace, port=handle.port, arch=ARCH_NAME)
    assert report.transport_failures == 0
    assert report.answered == 30
    assert report.ok == 3
    assert report.rejected.get("rate_limited") == 27
    assert "rate_limited=27" in report.render()
