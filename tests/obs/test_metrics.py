"""Metrics registry: snapshot → delta → merge shipping protocol."""

import pytest

from repro.obs.metrics import Histogram, MetricsRegistry, log_buckets


def test_counter_monotone_and_rejects_negative():
    r = MetricsRegistry()
    c = r.counter("hits")
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_registry_returns_same_instance_and_guards_types():
    r = MetricsRegistry()
    assert r.counter("x") is r.counter("x")
    with pytest.raises(TypeError):
        r.gauge("x")


def test_histogram_buckets_quantiles_and_merge():
    bounds = log_buckets(1e-3, 1e0, per_decade=1)  # 1ms, 10ms, 100ms, 1s
    assert bounds == (1e-3, 1e-2, 1e-1, 1e0)
    h = Histogram("lat", bounds)
    for v in (0.0005, 0.005, 0.005, 0.05, 5.0):
        h.observe(v)
    assert h.count == 5
    assert h.mean() == pytest.approx(sum((0.0005, 0.005, 0.005, 0.05, 5.0))
                                     / 5)
    snap = h.snapshot()
    assert snap["counts"] == [1, 2, 1, 0, 1]  # final slot = overflow
    assert h.quantile(0.5) == pytest.approx(1e-2)
    assert h.quantile(1.0) == pytest.approx(5.0)  # max, not a bound

    r1, r2 = MetricsRegistry(), MetricsRegistry()
    r1.histogram("lat", bounds).observe(0.005)
    r2.histogram("lat", bounds).observe(0.5)
    r2.merge_delta(r1.delta_since({}))
    merged = r2.histogram("lat", bounds).snapshot()
    assert merged["count"] == 2
    assert merged["counts"] == [0, 1, 0, 1, 0]


def test_delta_since_reports_only_what_happened():
    r = MetricsRegistry()
    r.counter("a").inc(3)
    r.gauge("g").set(7.0)
    before = r.snapshot()
    r.counter("a").inc(2)
    r.counter("b").inc(1)
    delta = r.delta_since(before)
    assert delta["a"]["value"] == 2
    assert delta["b"]["value"] == 1
    assert delta["g"]["value"] == 7.0  # gauges report their level
    # an untouched counter does not appear in the delta at all
    r.counter("idle")
    before2 = r.snapshot()
    assert "idle" not in r.delta_since(before2)


def test_merge_deltas_from_two_workers_is_exact():
    """The engine's invariant: merging per-worker deltas never loses or
    double-counts, regardless of how work was split."""
    engine = MetricsRegistry()

    def worker(work: int) -> dict:
        shared = MetricsRegistry()  # stands in for a worker's REGISTRY
        shared.counter("builds").inc(100)  # pre-existing state
        before = shared.snapshot()
        shared.counter("builds").inc(work)
        shared.histogram("lat", (0.1, 1.0)).observe(0.5)
        return shared.delta_since(before)

    engine.merge_delta(worker(3))
    engine.merge_delta(worker(4))
    assert engine.values()["builds"] == 7  # not 207
    assert engine.histogram("lat", (0.1, 1.0)).count == 2


def test_snapshot_is_json_shaped():
    import json

    r = MetricsRegistry()
    r.counter("c").inc()
    r.gauge("g").set(1.5)
    r.histogram("h").observe(0.01)
    assert json.loads(json.dumps(r.snapshot())) == r.snapshot()


def test_instrumented_modules_register_their_counters():
    # importing a module registers its counters in the global registry
    from repro.machine import reuse
    from repro.obs.metrics import REGISTRY
    from repro.spmv import schedule

    snap = REGISTRY.snapshot()
    for module, prefix in ((reuse, "reuse"), (schedule, "schedule")):
        for kind, counter in (("builds", module._BUILDS),
                              ("hits", module._HITS)):
            name = f"{prefix}.{kind}"
            assert snap[name]["type"] == "counter"
            assert REGISTRY.counter(name) is counter
