"""Span tracer: golden Chrome trace-event schema, nesting, no-op path,
and stages (spans whose seconds always reach the registry)."""

import json
import threading

import pytest

from repro.obs import trace as obs_trace
from repro.obs.report import load_trace, validate_trace
from repro.obs.metrics import REGISTRY
from repro.obs.trace import _NOP, Tracer, current_span_stack, span, stage


@pytest.fixture
def tracer():
    t = Tracer(enabled=True)
    yield t
    t.disable()


@pytest.fixture(autouse=True)
def clean_global_tracer():
    yield
    obs_trace.disable()
    obs_trace.TRACER.clear()


def _stage_seconds(name: str) -> tuple:
    hist = REGISTRY.histogram(f"{name}_seconds")
    return hist.count, hist.sum


# ----------------------------------------------------------------------
# disabled fast path
# ----------------------------------------------------------------------
def test_disabled_span_is_the_shared_noop_singleton():
    assert not obs_trace.is_enabled()
    s1 = span("anything", algo="RCM")
    s2 = span("else")
    assert s1 is s2 is _NOP
    with s1 as inner:
        assert inner.set(more=1) is _NOP
    assert obs_trace.TRACER.events() == []


def test_noop_span_does_not_swallow_exceptions():
    with pytest.raises(ValueError):
        with span("x"):
            raise ValueError("must propagate")


# ----------------------------------------------------------------------
# golden schema
# ----------------------------------------------------------------------
def test_saved_trace_is_schema_valid_chrome_json(tracer, tmp_path):
    with tracer.span("outer", matrix="m1"):
        with tracer.span("inner", algo="RCM"):
            pass
        with tracer.span("inner", algo="Gray"):
            pass
    tracer.instant("marker", note="here")
    path = tmp_path / "trace.json"
    n = tracer.save(str(path))
    assert n == 4

    raw = json.loads(path.read_text())
    assert isinstance(raw["traceEvents"], list)
    assert raw["displayTimeUnit"] == "ms"

    events = load_trace(str(path))
    assert validate_trace(events) == []
    complete = [ev for ev in events if ev["ph"] == "X"]
    # save() sorts by start time: the outer span opened first
    assert [ev["name"] for ev in complete] == ["outer", "inner", "inner"]
    for ev in complete:
        for key in ("name", "ph", "ts", "dur", "pid", "tid"):
            assert key in ev
        assert ev["ts"] >= 0 and ev["dur"] >= 0
        assert ev["cat"] == "repro"
    assert complete[0]["args"] == {"matrix": "m1"}
    assert complete[1]["args"] == {"algo": "RCM"}


def test_nested_spans_nest_on_the_time_axis(tracer):
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    inner, outer = tracer.events()
    assert inner["ts"] >= outer["ts"]
    assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 0.01


def test_exception_inside_span_is_recorded_and_propagates(tracer):
    with pytest.raises(RuntimeError):
        with tracer.span("failing", algo="HP"):
            raise RuntimeError("boom")
    (ev,) = tracer.events()
    assert ev["args"]["error"] == "RuntimeError"
    assert ev["args"]["algo"] == "HP"


def test_set_attaches_mid_span_attributes(tracer):
    with tracer.span("work") as s:
        s.set(rows=7)
    (ev,) = tracer.events()
    assert ev["args"] == {"rows": 7}


def test_spans_are_thread_safe(tracer):
    def worker(i):
        for _ in range(50):
            with tracer.span("t", idx=i):
                pass

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    events = tracer.events()
    assert len(events) == 200
    assert validate_trace(events) == []
    # every thread's spans all arrived (tids may be reused after join)
    assert {ev["args"]["idx"] for ev in events} == {0, 1, 2, 3}


def test_jsonl_mirror_appends_one_event_per_line(tmp_path):
    path = tmp_path / "trace.jsonl"
    t = Tracer()
    t.enable(jsonl_path=str(path))
    with t.span("a"):
        pass
    with t.span("b"):
        pass
    t.disable()
    lines = path.read_text().splitlines()
    assert [json.loads(ln)["name"] for ln in lines] == ["a", "b"]


def test_drain_and_merge_ship_events_between_tracers(tracer):
    with tracer.span("shipped"):
        pass
    events = tracer.drain()
    assert tracer.events() == []
    other = Tracer()
    other.merge(events)
    assert [ev["name"] for ev in other.events()] == ["shipped"]


# ----------------------------------------------------------------------
# validator negatives
# ----------------------------------------------------------------------
def test_validator_flags_missing_keys_and_bad_durations():
    assert validate_trace([{"ph": "X", "ts": 0, "pid": 1, "tid": 1}])
    assert validate_trace(
        [{"name": "x", "ph": "X", "ts": 0, "dur": -1, "pid": 1, "tid": 1}])
    assert validate_trace(
        [{"name": "x", "ph": "X", "ts": -5, "dur": 1, "pid": 1, "tid": 1}])
    assert validate_trace(
        [{"name": "x", "ph": "?", "ts": 0, "pid": 1, "tid": 1}])


def test_validator_flags_partial_overlap_on_one_thread():
    events = [
        {"name": "a", "ph": "X", "ts": 0.0, "dur": 10.0, "pid": 1, "tid": 1},
        {"name": "b", "ph": "X", "ts": 5.0, "dur": 10.0, "pid": 1, "tid": 1},
    ]
    problems = validate_trace(events)
    assert problems and "overlap" in problems[0]
    # same spans on different threads are fine
    events[1]["tid"] = 2
    assert validate_trace(events) == []


def test_validator_flags_unbalanced_duration_events():
    assert validate_trace(
        [{"name": "x", "ph": "E", "ts": 1.0, "pid": 1, "tid": 1}])
    assert validate_trace(
        [{"name": "x", "ph": "B", "ts": 1.0, "pid": 1, "tid": 1}])
    ok = [{"name": "x", "ph": "B", "ts": 1.0, "pid": 1, "tid": 1},
          {"name": "x", "ph": "E", "ts": 2.0, "pid": 1, "tid": 1}]
    assert validate_trace(ok) == []


# ----------------------------------------------------------------------
# stages
# ----------------------------------------------------------------------
def test_untraced_stage_times_into_the_registry_without_a_span():
    assert not obs_trace.is_enabled()
    count0, sum0 = _stage_seconds("test.untraced")
    with stage("test.untraced", algo="RCM") as s:
        assert s.set(more=1) is s
        sum(range(1000))
    count1, sum1 = _stage_seconds("test.untraced")
    assert count1 == count0 + 1 and sum1 > sum0
    assert obs_trace.TRACER.events() == []


def test_traced_stage_span_duration_is_its_registry_seconds():
    obs_trace.enable()  # the clean_global_tracer fixture restores it
    count0, sum0 = _stage_seconds("test.traced")
    for _ in range(3):
        with stage("test.traced", algo="RCM"):
            sum(range(1000))
    count1, sum1 = _stage_seconds("test.traced")
    events = [e for e in obs_trace.TRACER.events()
              if e["name"] == "test.traced"]
    assert count1 - count0 == len(events) == 3
    assert all(e["args"] == {"algo": "RCM"} for e in events)
    assert sum(e["dur"] for e in events) == pytest.approx(
        (sum1 - sum0) * 1e6, abs=1e-3 * len(events))


def test_stage_records_its_time_when_the_body_raises():
    count0, _ = _stage_seconds("test.raises")
    with pytest.raises(ValueError):
        with stage("test.raises"):
            raise ValueError("boom")
    assert _stage_seconds("test.raises")[0] == count0 + 1


def test_untraced_stage_keeps_the_profiler_span_stack():
    obs_trace.track_stacks(True)
    try:
        with stage("test.stacked"):
            assert current_span_stack()[-1] == ("test.stacked", None)
        assert current_span_stack() == []
    finally:
        obs_trace.track_stacks(False)
