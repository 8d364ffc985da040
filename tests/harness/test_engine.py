"""Tests for the parallel, resumable sweep engine.

Covers the journal golden round-trip (write → kill mid-sweep → resume
recomputes only the torn cell and reproduces bit-identical records),
fault tolerance (FailedCell rows instead of crashes, bounded retries,
timeouts), parallel-vs-serial result equivalence, and the metrics
artifact.
"""

import json
import time

import numpy as np
import pytest

from repro.errors import HarnessError, ReorderingError, ScheduleError
from repro.generators import build_corpus
from repro.generators.suite import CorpusEntry
from repro.harness import engine as engine_mod
from repro.harness import (
    FailedCell,
    OrderingCache,
    SweepEngine,
    SweepJournal,
    experiment_speedups,
)
from repro.machine import get_architecture
from repro.machine.model import PerfModel
from repro.obs import trace as obs_trace
from repro.reorder import registry
from repro.reorder.perm import OrderingResult
from ..conftest import random_csr


@pytest.fixture(scope="module")
def tiny_corpus():
    return build_corpus("tiny", seed=0)[:4]


@pytest.fixture(scope="module")
def rome():
    return [get_architecture("Rome")]


def _run(corpus, archs, journal=None, resume=False, **kw):
    engine = SweepEngine(corpus, archs, ["RCM", "Gray"],
                         journal_path=journal, resume=resume, **kw)
    return engine, engine.run()


# ----------------------------------------------------------------------
# equivalence: given vs default cache, inline vs pool
# ----------------------------------------------------------------------
def test_given_cache_records_match_default_cache(tiny_corpus, rome):
    given = SweepEngine(tiny_corpus, rome, ["RCM", "Gray"],
                        cache=OrderingCache()).run()
    _, default = _run(tiny_corpus, rome)
    assert given.records == default.records


def test_parallel_records_identical_to_serial(tiny_corpus, rome):
    _, serial = _run(tiny_corpus, rome)
    _, fanout = _run(tiny_corpus, rome, jobs=2)
    assert serial.records == fanout.records
    assert fanout.failed == []


# ----------------------------------------------------------------------
# journal: golden round-trip
# ----------------------------------------------------------------------
def test_journal_roundtrip_and_resume_skips_completed(
        tiny_corpus, rome, tmp_path):
    journal = str(tmp_path / "sweep.jsonl")
    eng1, clean = _run(tiny_corpus, rome, journal=journal)
    assert eng1.metrics.cells["resumed"] == 0

    eng2, resumed = _run(tiny_corpus, rome, journal=journal, resume=True)
    assert resumed.records == clean.records  # bit-identical dataclasses
    stats = eng2.metrics.cells
    assert stats["resumed"] == stats["total"] == len(clean.records)
    # zero recomputation: no ordering was recomputed on resume
    assert eng2.metrics.cache.get("requests", 0) == 0


def test_torn_journal_recomputes_only_the_torn_cell(
        tiny_corpus, rome, tmp_path):
    journal = str(tmp_path / "sweep.jsonl")
    _, clean = _run(tiny_corpus, rome, journal=journal)

    # kill mid-write: truncate the file inside its final record line
    raw = open(journal, "rt").readlines()
    torn = "".join(raw[:-1]) + raw[-1][: len(raw[-1]) // 2]
    with open(journal, "wt") as f:
        f.write(torn)

    eng, resumed = _run(tiny_corpus, rome, journal=journal, resume=True)
    assert resumed.records == clean.records
    stats = eng.metrics.cells
    assert stats["resumed"] == stats["total"] - 1
    # the journal healed: a further resume completes without computing
    eng2, again = _run(tiny_corpus, rome, journal=journal, resume=True)
    assert eng2.metrics.cells["resumed"] == stats["total"]
    assert again.records == clean.records


def test_resume_rejects_mismatched_signature(tiny_corpus, rome, tmp_path):
    journal = str(tmp_path / "sweep.jsonl")
    _run(tiny_corpus, rome, journal=journal)
    with pytest.raises(HarnessError, match="signature"):
        SweepEngine(tiny_corpus[:2], rome, ["RCM", "Gray"],
                    journal_path=journal, resume=True).run()


def test_resume_drops_journaled_cells_outside_the_grid(
        tiny_corpus, rome, tmp_path):
    """A record for a cell this sweep does not own is ignored on resume:
    not returned, not counted as resumed."""
    journal = str(tmp_path / "sweep.jsonl")
    _, clean = _run(tiny_corpus, rome, journal=journal)
    rec = clean.records[0]
    stray = ("not_in_corpus", rec.ordering, rec.kernel, rec.architecture)
    with open(journal) as f:
        lines = f.readlines()
    # keep the matching header plus one hand-written foreign record
    data = dict(json.loads(lines[1])["data"], matrix=stray[0])
    with open(journal, "wt") as f:
        f.write(lines[0])
        f.write(json.dumps({"type": "record", "cell": list(stray),
                            "data": data}) + "\n")

    eng, resumed = _run(tiny_corpus, rome, journal=journal, resume=True)
    assert eng.metrics.cells["resumed"] == 0
    assert resumed.records == clean.records
    assert all(r.matrix != stray[0] for r in resumed.records)


def test_journal_without_resume_starts_fresh(tiny_corpus, rome, tmp_path):
    journal = str(tmp_path / "sweep.jsonl")
    _run(tiny_corpus, rome, journal=journal)
    eng, _ = _run(tiny_corpus, rome, journal=journal, resume=False)
    assert eng.metrics.cells["resumed"] == 0
    # the file was rewritten, not appended to
    _, records, _ = SweepJournal.load(journal)
    assert len(records) == eng.metrics.cells["total"]


def test_journal_load_rejects_headerless_file_with_entries(tmp_path):
    # entries whose header is gone cannot be matched to a sweep
    path = tmp_path / "broken.jsonl"
    failed = json.dumps({"type": "failed", "cell": ["m", "RCM", "1d", "Rome"],
                         "data": {"matrix": "m", "ordering": "RCM",
                                  "kernel": "1d", "architecture": "Rome",
                                  "stage": "reorder", "error": "E",
                                  "message": "boom"}})
    path.write_text(failed + "\n")
    with pytest.raises(HarnessError, match="header"):
        SweepJournal.load(str(path))


def test_journal_load_empty_file_is_no_completed_cells(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert SweepJournal.load(str(path)) == (None, {}, [])


def _record_entry(**overrides) -> dict:
    data = {"matrix": "m", "ordering": "RCM", "kernel": "1d",
            "architecture": "Rome", "nthreads": 4, "nnz_min": 1,
            "nnz_max": 3, "nnz_mean": 2.0, "imbalance": 1.5,
            "seconds": 1e-6, "gflops_max": 2.5, "gflops_mean": 2.0,
            "workload": "spmv"}
    data.update(overrides)
    cell = [data["matrix"], data["ordering"], data["kernel"],
            data["architecture"]]
    return {"type": "record", "cell": cell, "data": data}


def _write_journal(path, *lines: bytes) -> None:
    header = json.dumps({"type": "header", "signature": {"seed": 0}})
    path.write_bytes(b"\n".join([header.encode(), *lines]) + b"\n")


def test_journal_load_skips_non_utf8_lines(tmp_path):
    path = tmp_path / "sweep.jsonl"
    good = _record_entry()
    _write_journal(path, b'{"type": "record", "cell": ["\xff"]}',
                   json.dumps(good).encode())
    signature, records, _ = SweepJournal.load(str(path))
    assert signature == {"seed": 0}
    assert list(records) == [tuple(good["cell"])]


def test_journal_load_skips_ill_typed_or_mismatched_records(tmp_path):
    path = tmp_path / "sweep.jsonl"
    good = _record_entry()
    all_strings = _record_entry(matrix="x")
    all_strings["data"] = {k: str(v) for k, v in all_strings["data"].items()}
    all_strings["cell"] = ["y", "RCM", "1d", "Rome"]
    wrong_cell = dict(_record_entry(matrix="z"),
                      cell=["other", "RCM", "1d", "Rome"])
    bad = [all_strings, wrong_cell,
           _record_entry(matrix="s", nthreads="4"),
           _record_entry(matrix="b", nnz_max=True),
           _record_entry(matrix="i", seconds=float("inf")),
           _record_entry(matrix="n", gflops_max=float("nan"))]
    _write_journal(path, *(json.dumps(e).encode() for e in bad),
                   json.dumps(good).encode())
    _, records, _ = SweepJournal.load(str(path))
    assert list(records) == [tuple(good["cell"])]
    assert records[tuple(good["cell"])].nthreads == 4


def test_resume_from_zero_byte_journal_starts_fresh(
        tiny_corpus, rome, tmp_path):
    # a sweep killed before its header flushed leaves a 0-byte file;
    # resuming from it must behave exactly like a fresh run
    journal = str(tmp_path / "sweep.jsonl")
    open(journal, "wt").close()
    _, clean = _run(tiny_corpus, rome)
    eng, resumed = _run(tiny_corpus, rome, journal=journal, resume=True)
    assert resumed.records == clean.records
    assert eng.metrics.cells["resumed"] == 0
    # and the healed journal now supports a normal full resume
    eng2, _ = _run(tiny_corpus, rome, journal=journal, resume=True)
    assert eng2.metrics.cells["resumed"] == eng2.metrics.cells["total"]


def test_resume_from_torn_only_journal_starts_fresh(
        tiny_corpus, rome, tmp_path):
    # the only line is the torn prefix of the header (killed mid-write)
    journal = str(tmp_path / "sweep.jsonl")
    with open(journal, "wt") as f:
        f.write('{"type": "header", "versi')
    _, clean = _run(tiny_corpus, rome)
    eng, resumed = _run(tiny_corpus, rome, journal=journal, resume=True)
    assert resumed.records == clean.records
    assert eng.metrics.cells["resumed"] == 0


# ----------------------------------------------------------------------
# fault tolerance
# ----------------------------------------------------------------------
@pytest.fixture
def exploding_ordering():
    def boom(a, **kw):
        raise RuntimeError("injected failure")

    registry.ORDERING_FUNCS["Boom"] = boom
    yield "Boom"
    registry.ORDERING_FUNCS.pop("Boom", None)


@pytest.fixture
def sleepy_ordering():
    def sleepy(a, **kw):
        time.sleep(10)

    registry.ORDERING_FUNCS["Sleepy"] = sleepy
    yield "Sleepy"
    registry.ORDERING_FUNCS.pop("Sleepy", None)


def test_unknown_ordering_rejected_before_any_cell(tiny_corpus, rome,
                                                   exploding_ordering):
    with pytest.raises(ReorderingError, match="known: original, RCM"):
        SweepEngine(tiny_corpus[:1], rome, ["RCM", "NOPE"])
    # a name registered at run time is known
    SweepEngine(tiny_corpus[:1], rome, ["RCM", exploding_ordering])


def test_unknown_kernel_rejected_before_any_cell(tiny_corpus, rome):
    with pytest.raises(ScheduleError, match="unknown kernel/workload "
                                            "spec '3d'"):
        SweepEngine(tiny_corpus[:1], rome, ["RCM"], kernels=("1d", "3d"))
    with pytest.raises(ScheduleError, match="unknown kernel/workload "
                                            "spec 'merge'"):
        SweepEngine(tiny_corpus[:1], rome, ["RCM"], kernels=("merge",))
    with pytest.raises(ScheduleError, match="unknown schedule kind"):
        SweepEngine(tiny_corpus[:1], rome, ["RCM"], kernels=("cg:3d",))
    SweepEngine(tiny_corpus[:1], rome, ["RCM"],
                kernels=("1d", "2d", "cg", "spmm:2d"))


def test_raising_ordering_yields_failed_cells_not_a_crash(
        tiny_corpus, rome, exploding_ordering):
    engine = SweepEngine(tiny_corpus, rome, ["RCM", exploding_ordering],
                         retries=1)
    result = engine.run()
    # every other cell completed: baseline + RCM, both kernels
    assert len(result.records) == len(tiny_corpus) * 2 * 2
    assert len(result.failed) == len(tiny_corpus) * 2
    for f in result.failed:
        assert isinstance(f, FailedCell)
        assert f.ordering == exploding_ordering
        assert f.stage == "reorder"
        assert f.error == "RuntimeError"
        assert f.attempts == 2
    assert engine.metrics.cells["retried"] == len(tiny_corpus)
    assert not result.complete


@pytest.fixture
def misfit_ordering():
    """Computes fine, but its permutation is one row short, so applying
    it to the matrix raises."""
    def short(a, **kw):
        return OrderingResult("Short", np.arange(a.nrows - 1), True)

    registry.ORDERING_FUNCS["Short"] = short
    yield "Short"
    registry.ORDERING_FUNCS.pop("Short", None)


def test_raising_apply_yields_failed_cells_not_a_crash(
        tiny_corpus, rome, misfit_ordering):
    result = SweepEngine(tiny_corpus[:1], rome,
                         [misfit_ordering, "RCM"]).run()
    # the matrix's other cells completed: baseline + RCM, both kernels
    assert len(result.records) == 2 * 2
    assert [(f.ordering, f.stage, f.error) for f in result.failed] == \
        [(misfit_ordering, "reorder", "PermutationError")] * 2


def test_timeout_produces_structured_timeout_failure(
        tiny_corpus, rome, sleepy_ordering):
    engine = SweepEngine(tiny_corpus[:1], rome, [sleepy_ordering],
                         timeout=0.2)
    start = time.perf_counter()
    result = engine.run()
    assert time.perf_counter() - start < 5.0  # did not sleep 10s
    assert [f.error for f in result.failed] == ["CellTimeout"] * 2


def test_failed_cells_are_journaled_and_retried_on_resume(
        tiny_corpus, rome, tmp_path, exploding_ordering):
    journal = str(tmp_path / "sweep.jsonl")
    eng1 = SweepEngine(tiny_corpus[:2], rome, ["RCM", exploding_ordering],
                       journal_path=journal)
    eng1.run()
    _, _, journaled_failures = SweepJournal.load(journal)
    assert len(journaled_failures) == 2 * 2

    # the ordering is fixed before the resume: the failed cells are
    # still pending (only completed cells are skipped) and now succeed
    registry.ORDERING_FUNCS[exploding_ordering] = \
        registry.ORDERING_FUNCS["RCM"]
    eng2 = SweepEngine(tiny_corpus[:2], rome, ["RCM", exploding_ordering],
                       journal_path=journal, resume=True)
    result = eng2.run()
    assert result.failed == []
    assert len(result.records) == eng2.metrics.cells["total"]
    assert eng2.metrics.cells["resumed"] == 2 * (1 + 1) * 2  # ok cells


def test_speedups_raise_on_a_sweep_with_an_exploding_ordering(
        tiny_corpus, rome, exploding_ordering):
    result = SweepEngine(tiny_corpus[:1], rome,
                         [exploding_ordering]).run()
    assert len(result.failed) == 2  # the engine itself never raises
    name = tiny_corpus[0].name
    with pytest.raises(HarnessError,
                       match=f"first: {name}/Boom/1d/Rome .*"
                             "injected failure"):
        experiment_speedups(result, ["Rome"], "1d")


# ----------------------------------------------------------------------
# metrics & progress
# ----------------------------------------------------------------------
def test_metrics_artifact_shape(tiny_corpus, rome, tmp_path):
    engine, result = _run(tiny_corpus, rome, jobs=2)
    path = tmp_path / "sweep_metrics.json"
    engine.metrics.save(path)
    m = json.loads(path.read_text())
    assert m["jobs"] == 2
    assert m["cells"]["completed"] == len(result.records)
    assert m["cells"]["failed"] == 0
    assert set(m["stages"]) >= {"reorder", "model_eval"}
    assert m["stages"]["model_eval"] > 0.0
    assert 0.0 < m["workers"]["utilization"] <= 1.0
    assert m["cache"]["requests"] == m["cache"]["hits"] + \
        m["cache"]["disk_hits"] + m["cache"]["misses"]


def test_progress_heartbeat_reaches_total(tiny_corpus, rome):
    beats = []
    engine = SweepEngine(
        tiny_corpus, rome, ["RCM"],
        progress=lambda done, total, failed, elapsed:
            beats.append((done, total, failed)))
    engine.run()
    assert beats, "progress callback never fired"
    done, total, failed = beats[-1]
    assert done == total == engine.metrics.cells["total"]
    assert failed == 0
    assert [b[0] for b in beats] == sorted(b[0] for b in beats)


def test_engine_rejects_bad_config(tiny_corpus, rome):
    with pytest.raises(HarnessError):
        SweepEngine(tiny_corpus, rome, ["RCM"], jobs=0)
    with pytest.raises(HarnessError):
        SweepEngine(tiny_corpus, rome, ["RCM"], retries=-1)


# ----------------------------------------------------------------------
# advisor integration: dataset building over a faulty sweep
# ----------------------------------------------------------------------
def test_advisor_dataset_skips_failed_cells(
        tiny_corpus, rome, exploding_ordering):
    from repro.advisor.dataset import build_dataset

    cache = OrderingCache()
    engine = SweepEngine(tiny_corpus, rome, ["RCM", exploding_ordering],
                         cache=cache)
    sweep = engine.run()
    assert sweep.failed
    rows = build_dataset(tiny_corpus, rome,
                         orderings=["RCM", exploding_ordering],
                         cache=cache, sweep=sweep)
    assert len(rows) == len(tiny_corpus) * 2  # one per kernel
    for row in rows:
        assert exploding_ordering not in row.speedups
        assert exploding_ordering not in row.reorder_seconds
        assert set(row.speedups) == {"original", "RCM"}
        assert np.isfinite(row.best_speedup)


# ----------------------------------------------------------------------
# model-statistics reuse observability
# ----------------------------------------------------------------------
def test_metrics_report_model_stat_reuse(tmp_path):
    """A multi-architecture sweep must reuse the per-(matrix, ordering)
    statistics and schedules across cells, and say so in the metrics.
    Naples and TX2 share a 64-core count, so their schedules must be
    served from the same cache entries.  A fresh corpus (not the
    module fixture) keeps the build counts deterministic — matrices
    memoise their statistics across engine runs."""
    corpus = build_corpus("tiny", seed=0)[:4]
    archs = [get_architecture(n) for n in ("Naples", "TX2")]
    engine = SweepEngine(corpus, archs, ["RCM", "Gray"])
    engine.run()
    stats = engine.registry.values()
    # 3 variants (original, RCM, Gray) per matrix, one statistics build
    # each; every further (arch, kernel) cell is a hit
    assert stats.get("reuse.builds", 0) == 3 * len(corpus)
    assert stats.get("reuse.hits", 0) > 0
    assert stats.get("schedule.builds", 0) > 0
    assert stats.get("schedule.hits", 0) > 0
    assert "reuse_stats" in engine.metrics.stages
    path = tmp_path / "sweep_metrics.json"
    engine.metrics.save(path)
    m = json.loads(path.read_text())
    for name in ("reuse.builds", "reuse.hits", "schedule.builds",
                 "schedule.hits"):
        assert m["registry"][name]["value"] == stats[name]
    assert set(m["stages"]) >= {"reorder", "reuse_stats", "model_eval"}


def test_gp_grouping_keeps_per_arch_permutations(tiny_corpus):
    """GP permutations depend on the architecture's core count; one
    task per matrix sharing a cache across both archs must produce the
    same records as sweeping each arch on its own."""
    archs = [get_architecture(n) for n in ("Rome", "Milan B")]
    assert archs[0].gp_parts != archs[1].gp_parts
    alone = [rec for arch in archs
             for rec in SweepEngine(tiny_corpus[:2], [arch], ["GP"],
                                    cache=OrderingCache()).run().records]
    both = SweepEngine(tiny_corpus[:2], archs, ["GP"]).run()
    assert both.records == alone


# ----------------------------------------------------------------------
# the grid pass: one model pass per matrix, per-cell fallback
# ----------------------------------------------------------------------
class _BrokenModel(PerfModel):
    """A model whose per-thread hook raises, so any pass holding one of
    its cells raises as a whole."""

    def _finish_times(self, a, schedule, times, x_loads, resid):
        raise ValueError(f"broken model on {self.arch.name}")


class _SlowModel(PerfModel):
    def _finish_times(self, a, schedule, times, x_loads, resid):
        time.sleep(0.5)
        return times


def test_failing_pass_falls_back_to_naming_every_bad_cell(tiny_corpus):
    archs = [get_architecture(n) for n in ("Rome", "Skylake")]
    broken = archs[1].name
    engine = SweepEngine(
        tiny_corpus[:2], archs, ["RCM"],
        model_factory=lambda arch: (_BrokenModel(arch)
                                    if arch.name == broken
                                    else PerfModel(arch)))
    result = engine.run()
    want = SweepEngine(tiny_corpus[:2], archs[:1], ["RCM"]).run()
    # the healthy architecture's cells are scored one by one, the same
    assert result.records == want.records
    assert sorted(f.cell for f in result.failed) == sorted(
        c for c in engine.cells() if c[3] == broken)
    assert {(f.stage, f.error) for f in result.failed} == \
        {("model-eval", "ValueError")}


def test_pass_past_its_budget_falls_back_per_cell(tiny_corpus, rome):
    engine = SweepEngine(tiny_corpus[:1], rome, [], kernels=("1d", "2d"),
                         timeout=0.1, model_factory=_SlowModel)
    start = time.perf_counter()
    result = engine.run()
    assert time.perf_counter() - start < 5.0
    assert sorted(f.cell for f in result.failed) == sorted(engine.cells())
    assert {f.error for f in result.failed} == {"CellTimeout"}


def test_pass_overrunning_in_record_assembly_falls_back_per_cell(
        tiny_corpus, rome, monkeypatch):
    """The pass's budget running out while one cell's record is built
    is the pass's overrun, not that cell's failure."""
    want = SweepEngine(tiny_corpus[:1], rome, []).run()
    assemble = engine_mod.measurement_record

    def slow(*args, **kwargs):
        time.sleep(0.3)
        return assemble(*args, **kwargs)

    monkeypatch.setattr(engine_mod, "measurement_record", slow)
    result = SweepEngine(tiny_corpus[:1], rome, [], timeout=0.2).run()
    assert result.failed == []
    assert result.records == want.records


def test_spgemm_on_a_non_square_matrix_fails_only_those_cells(rome):
    tall = random_csr(40, 200, np.random.default_rng(3), ncols=25)
    entry = CorpusEntry(name="tall", group="test", kind="tall",
                        matrix=tall)
    engine = SweepEngine([entry], rome, [], kernels=("1d", "spgemm", "2d"))
    result = engine.run()
    assert [r.kernel for r in result.records] == ["1d", "2d"]
    assert [(f.kernel, f.stage, f.error) for f in result.failed] == \
        [("spgemm", "model-eval", "ScheduleError")]


def test_flushing_every_cell_gives_identical_records(
        tiny_corpus, monkeypatch):
    archs = [get_architecture(n) for n in ("Rome", "Skylake")]
    kernels = ("1d", "2d", "cg")
    whole = SweepEngine(tiny_corpus[:2], archs, ["RCM", "GP"],
                        kernels=kernels).run()
    monkeypatch.setattr(engine_mod, "GRID_PASS_ENTRIES", 1)
    obs_trace.enable()
    try:
        single = SweepEngine(tiny_corpus[:2], archs, ["RCM", "GP"],
                             kernels=kernels).run()
        passes = [ev["args"]["cells"] for ev in obs_trace.TRACER.events()
                  if ev["name"] == "model_eval"]
    finally:
        obs_trace.disable()
        obs_trace.TRACER.clear()
    assert single.records == whole.records
    assert single.failed == whole.failed == []
    assert passes == [1] * len(whole.records)


def test_reference_models_are_scored_per_cell(tiny_corpus, rome):
    fast = SweepEngine(tiny_corpus[:1], rome, ["RCM"]).run()
    obs_trace.enable()
    try:
        reference = SweepEngine(
            tiny_corpus[:1], rome, ["RCM"],
            model_factory=lambda arch: PerfModel(arch,
                                                 fastpath=False)).run()
        spans = [ev["args"] for ev in obs_trace.TRACER.events()
                 if ev["name"] == "model_eval"]
    finally:
        obs_trace.disable()
        obs_trace.TRACER.clear()
    assert reference.records == fast.records
    assert len(spans) == len(fast.records)
    assert all("cells" not in args and "kernel" in args for args in spans)
