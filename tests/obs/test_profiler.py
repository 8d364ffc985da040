"""The sampling profiler: sampling, span attribution, collapsed
output, CLI wrapping, and its safety constraints."""

from __future__ import annotations

import threading
import time

import pytest

from repro.harness.cli import main
from repro.obs import trace as trace_mod
from repro.obs.profiler import ProfilerError, SamplingProfiler


@pytest.fixture(autouse=True)
def clean_tracer():
    yield
    trace_mod.disable()
    trace_mod.TRACER.clear()
    trace_mod.track_stacks(False)


def _burn(seconds: float) -> float:
    deadline = time.perf_counter() + seconds
    x = 0.0
    while time.perf_counter() < deadline:
        x += 1.0
    return x


def test_rejects_bad_configuration():
    with pytest.raises(ProfilerError, match="unknown timer"):
        SamplingProfiler(timer="cosmic")
    with pytest.raises(ProfilerError, match="interval"):
        SamplingProfiler(interval=0.0)


def test_must_start_on_main_thread():
    errors: list = []

    def off_main():
        try:
            with SamplingProfiler():
                pass
        except ProfilerError as e:
            errors.append(e)

    t = threading.Thread(target=off_main)
    t.start()
    t.join()
    assert errors and "main thread" in str(errors[0])


def test_samples_cpu_bound_work():
    prof = SamplingProfiler(interval=0.002)
    with prof:
        _burn(0.3)
    assert prof.samples > 0
    assert sum(prof.counts.values()) == prof.samples
    # the busy loop's frame dominates self-time
    leaf, _ = max(prof.self_times().items(), key=lambda kv: kv[1])
    assert "_burn" in leaf


def test_span_attribution_without_tracing():
    assert not trace_mod.is_enabled()
    prof = SamplingProfiler(interval=0.002)
    with prof:
        with trace_mod.span("hotspot"):
            _burn(0.3)
    spans = prof.span_times()
    assert spans.get("hotspot", 0) > 0
    # stacks carry the span pseudo-frame ahead of the code frames
    assert any(key and key[0] == "span:hotspot"
               for key in prof.counts)
    # the profiler restored the no-tracking default on exit
    assert trace_mod.current_span_stack() == []


def test_collapsed_format_and_save(tmp_path):
    prof = SamplingProfiler(interval=0.002)
    with prof:
        _burn(0.2)
    lines = prof.collapsed()
    assert lines
    for line in lines:
        stack, count = line.rsplit(" ", 1)
        assert int(count) > 0 and ";" in stack or stack
    out = tmp_path / "p.collapsed"
    assert prof.save(str(out)) == len(lines)
    assert out.read_text().splitlines() == lines
    top = prof.render_top(5)
    assert "self-time by function" in top and "samples" in top


def test_render_top_with_zero_samples():
    prof = SamplingProfiler()
    assert "0 samples" in prof.render_top()


def test_timer_and_handler_restored_on_exit():
    import signal

    before = signal.getsignal(signal.SIGPROF)
    with SamplingProfiler(interval=0.002):
        _burn(0.05)
    assert signal.getsignal(signal.SIGPROF) == before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


@pytest.mark.slow
def test_profile_cli_wraps_a_sweep(tmp_path, capsys):
    out = tmp_path / "sweep.collapsed"
    rc = main(["profile", "--out", str(out), "--interval", "0.002",
               "sweep", "--tier", "tiny", "--limit", "2",
               "--archs", "Rome", "--orderings", "RCM",
               "--metrics", str(tmp_path / "sweep_metrics.json"),
               "--manifest", str(tmp_path / "run_manifest.json")])
    assert rc == 0
    assert out.exists()
    assert "self-time by span" in capsys.readouterr().out


def test_profile_cli_rejects_empty_and_self(capsys):
    assert main(["profile"]) == 2
    assert main(["profile", "profile"]) == 2
