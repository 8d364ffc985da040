"""Engine observability: traced sweeps, worker death, exact counters.

The kill test is the ISSUE's worker-death contract: a worker is
SIGKILLed mid-chunk during a ``--jobs 2`` sweep and the engine must
(a) finish every cell, and (b) report *exactly* the counters of an
undisturbed run — the dead worker's partial work is neither lost
(its cells are recomputed) nor double-counted (it never shipped a
delta).
"""

import os
import signal

import pytest

from repro.generators import build_corpus
from repro.harness import SweepEngine
from repro.machine import get_architecture
from repro.machine.model import PerfModel
from repro.obs import trace as obs_trace
from repro.obs.report import validate_trace


@pytest.fixture(autouse=True)
def clean_global_tracer():
    yield
    obs_trace.disable()
    obs_trace.TRACER.clear()


class KillOnceFactory:
    """A poisoned model factory: the first worker to claim the sentinel
    SIGKILLs itself (simulating an OOM kill mid-chunk); every later
    call builds a normal model.  Picklable, so it rides the engine's
    ``model_factory`` hook into pool workers."""

    def __init__(self, sentinel: str) -> None:
        self.sentinel = sentinel

    def __call__(self, arch) -> PerfModel:
        try:
            fd = os.open(self.sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            pass
        else:
            os.close(fd)
            os.kill(os.getpid(), signal.SIGKILL)
        return PerfModel(arch)


class AlwaysKillFactory:
    """SIGKILLs every worker that tries to build a model."""

    def __call__(self, arch) -> None:
        os.kill(os.getpid(), signal.SIGKILL)


def _metrics_fingerprint(engine: SweepEngine) -> tuple:
    """Everything that must be exact regardless of worker deaths."""
    reg = engine.registry.values()
    return ({name: reg.get(name, 0)
             for name in ("reuse.builds", "reuse.hits", "schedule.builds",
                          "schedule.hits")},
            {k: v for k, v in reg.items()
             if k.startswith("reorder.computed.")},
            engine.metrics.cache["requests"],
            engine.metrics.cache["misses"])


def test_worker_death_mid_chunk_loses_nothing(tmp_path):
    archs = [get_architecture("Rome")]
    baseline = SweepEngine(build_corpus("tiny", seed=0)[:3], archs,
                           ["RCM", "Gray"])
    reference = baseline.run()
    assert reference.failed == []

    sentinel = str(tmp_path / "killed-once")
    engine = SweepEngine(build_corpus("tiny", seed=0)[:3], archs,
                         ["RCM", "Gray"], jobs=2, retries=1,
                         model_factory=KillOnceFactory(sentinel))
    obs_trace.enable()  # the clean_global_tracer fixture restores it
    result = engine.run()

    assert os.path.exists(sentinel), "the poisoned worker never fired"
    assert engine.metrics.workers["crash_rounds"] >= 1
    # (a) the sweep completed: same records as the undisturbed run
    assert result.failed == []
    assert result.records == reference.records
    # (b) counters are exact: no loss, no double count
    assert _metrics_fingerprint(engine) == _metrics_fingerprint(baseline)
    # (c) trace events shipped only by surviving task completions:
    #     exactly one model_eval span per cell, and the trace is valid
    events = obs_trace.TRACER.events()
    assert validate_trace(events) == []
    model_evals = [ev for ev in events if ev["name"] == "model_eval"]
    assert len(model_evals) == engine.metrics.cells["total"]
    reorders = [ev for ev in events if ev["name"] == "reorder"]
    assert len(reorders) == 2 * 3  # two orderings x three matrices


def test_tasks_that_keep_killing_workers_fail_structurally():
    corpus = build_corpus("tiny", seed=0)[:2]
    engine = SweepEngine(corpus, [get_architecture("Rome")], ["RCM"],
                         jobs=2, retries=0,
                         model_factory=AlwaysKillFactory())
    result = engine.run()
    assert result.records == []
    assert result.failed
    assert {f.stage for f in result.failed} == {"worker"}
    assert {f.error for f in result.failed} == {"WorkerDied"}
    assert engine.metrics.cells["failed"] == engine.metrics.cells["total"]


def test_traced_parallel_sweep_produces_per_worker_lanes(tmp_path):
    corpus = build_corpus("tiny", seed=0)[:4]
    engine = SweepEngine(corpus, [get_architecture("Rome")],
                         ["RCM", "Gray"], jobs=2,
                         manifest_path=str(tmp_path / "run_manifest.json"))
    obs_trace.enable()  # the clean_global_tracer fixture restores it
    result = engine.run()
    assert result.failed == []
    events = obs_trace.TRACER.events()
    assert validate_trace(events) == []
    names = {ev["name"] for ev in events}
    assert names >= {"sweep.task", "reorder", "ordering.compute",
                     "reuse_stats", "model_eval"}
    # the work runs under worker pids, so each worker is its own
    # Perfetto lane; the parent records only the sweep.run root
    assert {ev["name"] for ev in events
            if ev["pid"] == os.getpid()} == {"sweep.run"}
    # the manifest points back at this run
    man_path = tmp_path / "run_manifest.json"
    assert man_path.exists()
    import json

    man = json.loads(man_path.read_text())
    assert man["run_id"] == engine.metrics.run_id
    assert man["config"]["jobs"] == 2 and man["config"]["trace"] is True
    assert man["signature"]["corpus"] == [e.name for e in corpus]


@pytest.mark.parametrize("tracing", [False, True])
def test_span_count_is_the_same_inline_and_in_the_pool(tracing):
    # spans follow the global tracer at run(), in the engine and in
    # its workers alike
    corpus = build_corpus("tiny", seed=0)[:2]
    counts = []
    for jobs in (1, 2):
        if tracing:
            obs_trace.enable()
        engine = SweepEngine(corpus, [get_architecture("Rome")], ["RCM"],
                             jobs=jobs)
        engine.run()
        counts.append(sum(ev["name"] == "model_eval"
                          for ev in obs_trace.TRACER.events()))
        obs_trace.disable()
        obs_trace.TRACER.clear()
    expected = engine.metrics.cells["total"] if tracing else 0
    assert counts == [expected, expected]


def test_sweep_metrics_is_a_view_over_the_registry(tmp_path):
    corpus = build_corpus("tiny", seed=0)[:2]
    engine = SweepEngine(corpus, [get_architecture("Rome")], ["RCM"])
    engine.run()
    m = engine.metrics
    reg = m.registry
    values = engine.registry.values()
    assert values["reuse.builds"] == \
        reg["reuse.builds"]["value"] == 2 * len(corpus)
    assert values.get("schedule.hits", 0) == \
        reg.get("schedule.hits", {}).get("value", 0)
    assert reg["reorder.computed.RCM"]["value"] == len(corpus)
    path = tmp_path / "metrics.json"
    m.save(path)
    import json

    saved = json.loads(path.read_text())
    assert saved["registry"] == reg
