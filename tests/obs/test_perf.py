"""The benchmark ledger: schema, noise-aware comparison, regression
gates, and the ``repro perf`` CLI."""

from __future__ import annotations

import json
import math

import pytest

from repro.errors import HarnessError
from repro.harness.cli import main
from repro.obs.perf import (BenchLedger, _geomean, _worse_ratio,
                            bench_record, compare_ledgers,
                            compare_records, metric, metric_kind,
                            render_comparison, render_trend,
                            run_builtin_bench)


# ----------------------------------------------------------------------
# schema
# ----------------------------------------------------------------------
def test_metric_kind_by_unit():
    assert metric_kind("s") == "time"
    assert metric_kind("ms") == "time"
    assert metric_kind("cells") == "exact"
    assert metric_kind("") == "exact"


def test_metric_value_defaults_to_best_sample():
    lower = metric(samples=[3.0, 1.0, 2.0], unit="s")
    assert lower["value"] == 1.0           # min-of-k for lower-is-better
    higher = metric(samples=[3.0, 1.0, 2.0], polarity="higher")
    assert higher["value"] == 3.0
    assert lower["samples"] == [3.0, 1.0, 2.0]


def test_metric_rejects_bad_input():
    with pytest.raises(ValueError):
        metric(1.0, polarity="sideways")
    with pytest.raises(ValueError):
        metric()  # neither value nor samples


def test_bench_record_carries_provenance():
    rec = bench_record("b", tier="tiny", seed=0,
                       metrics={"m": metric(1.0, unit="s")})
    assert rec["name"] == "b" and rec["tier"] == "tiny"
    assert "git_sha" in rec and "created" in rec
    assert rec["metrics"]["m"]["kind"] == "time"


def test_ledger_append_and_latest(tmp_path):
    ledger = BenchLedger(str(tmp_path / "BENCH_tiny.json"))
    assert ledger.records() == []
    for v in (2.0, 1.5):
        ledger.append(bench_record(
            "b", "tiny", 0, {"m": metric(v, unit="s")}))
    assert len(ledger.records("b")) == 2
    assert ledger.latest()["b"]["metrics"]["m"]["value"] == 1.5
    # the file is plain versioned JSON
    doc = json.load(open(ledger.path))
    assert doc["version"] == 1 and len(doc["records"]) == 2


def test_ledger_rejects_foreign_json(tmp_path):
    path = tmp_path / "not_a_ledger.json"
    path.write_text('{"traceEvents": []}')
    with pytest.raises(HarnessError, match="not a bench ledger"):
        BenchLedger(str(path)).load()


def test_ledger_rejects_non_utf8_bytes(tmp_path):
    path = tmp_path / "BENCH_tiny.json"
    path.write_bytes(b'{"records": [], "version": 1, "x": "\xff"}')
    with pytest.raises(HarnessError, match="unreadable bench ledger"):
        BenchLedger(str(path)).load()


@pytest.mark.parametrize("record", [
    "not-a-record",
    {"name": 3, "metrics": {}},
    {"name": "b", "metrics": []},
    {"name": "b", "metrics": {"m": {"value": "1.0", "unit": "s"}}},
    {"name": "b", "metrics": {"m": {"value": True, "unit": "s"}}},
    {"name": "b", "metrics": {"m": {"value": 1.0, "polarity": "up"}}},
])
def test_ledger_rejects_ill_shaped_records(tmp_path, record):
    path = tmp_path / "BENCH_tiny.json"
    path.write_text(json.dumps({"version": 1, "records": [record]}))
    with pytest.raises(HarnessError, match="record 0 is not a well-formed"):
        BenchLedger(str(path)).load()


def test_ledger_rejects_non_finite_values(tmp_path):
    path = tmp_path / "BENCH_tiny.json"
    path.write_text('{"version": 1, "records": [{"name": "b", '
                    '"metrics": {"m": {"value": NaN, "unit": "s"}}}]}')
    with pytest.raises(HarnessError, match="record 0 is not a well-formed"):
        BenchLedger(str(path)).load()


# ----------------------------------------------------------------------
# comparison semantics
# ----------------------------------------------------------------------
def _rec(**metrics):
    return bench_record("b", "tiny", 0, metrics)


def test_worse_ratio_polarity():
    assert _worse_ratio(1.0, 1.2, "lower") == pytest.approx(1.2)
    assert _worse_ratio(1.0, 1.2, "higher") == pytest.approx(1 / 1.2)
    assert _worse_ratio(0.0, 0.0, "lower") == 1.0
    assert _worse_ratio(0.0, 1.0, "lower") == math.inf


def test_identical_records_have_no_regressions():
    base = _rec(t=metric(1.0, unit="s"), n=metric(5.0, unit="cells"))
    cmp = compare_records(base, base)
    assert cmp["regressions"] == [] and cmp["missing"] == []
    assert all(r["ratio"] == 1.0 for r in cmp["rows"])


def test_time_metric_within_band_passes_beyond_band_fails():
    base = _rec(t=metric(1.0, unit="s"))
    ok = compare_records(_rec(t=metric(1.10, unit="s")), base)
    assert ok["regressions"] == []          # inside the ±15 % band
    bad = compare_records(_rec(t=metric(1.20, unit="s")), base)
    assert [r["metric"] for r in bad["regressions"]] == ["t"]


def test_exact_metric_any_drift_regresses():
    base = _rec(n=metric(10.0, unit="cells", polarity="higher"))
    bad = compare_records(_rec(n=metric(9.0, unit="cells",
                                        polarity="higher")), base)
    assert bad["regressions"]
    # drift in the *better* direction is not a regression
    good = compare_records(_rec(n=metric(11.0, unit="cells",
                                         polarity="higher")), base)
    assert good["regressions"] == []


def test_per_metric_tolerance_overrides_default():
    base = _rec(t=metric(1.0, unit="s", tolerance=0.5))
    cmp = compare_records(_rec(t=metric(1.4, unit="s", tolerance=0.5)),
                          base)
    assert cmp["regressions"] == []


def test_missing_metric_reported_not_regressed():
    base = _rec(t=metric(1.0, unit="s"), gone=metric(2.0, unit="s"))
    cmp = compare_records(_rec(t=metric(1.0, unit="s")), base)
    assert cmp["missing"] == ["gone"]
    assert cmp["regressions"] == []


def test_kinds_filter_restricts_comparison():
    base = _rec(t=metric(1.0, unit="s"), n=metric(5.0, unit="cells"))
    cur = _rec(t=metric(9.9, unit="s"), n=metric(5.0, unit="cells"))
    cmp = compare_records(cur, base, kinds=("exact",))
    assert [r["metric"] for r in cmp["rows"]] == ["n"]
    assert cmp["regressions"] == []


def test_compare_ledgers_geomean_and_missing(tmp_path):
    base = BenchLedger(str(tmp_path / "base.json"))
    cur = BenchLedger(str(tmp_path / "cur.json"))
    base.append(bench_record("a", "tiny", 0,
                             {"t": metric(1.0, unit="s")}))
    base.append(bench_record("only_base", "tiny", 0,
                             {"t": metric(1.0, unit="s")}))
    cur.append(bench_record("a", "tiny", 0,
                            {"t": metric(2.0, unit="s")}))
    report = compare_ledgers(cur, base)
    assert report["missing_benches"] == ["only_base"]
    assert report["geomean_ratio"] == pytest.approx(2.0)
    assert report["regressions"][0]["bench"] == "a"
    text = render_comparison(report)
    assert "REGRESSED" in text and "1 regression(s)" in text


def test_geomean_edge_cases():
    assert _geomean([]) == 1.0
    assert _geomean([math.inf]) == math.inf
    assert _geomean([2.0, 0.5]) == pytest.approx(1.0)


# ----------------------------------------------------------------------
# built-in benches + the seeded synthetic regression
# ----------------------------------------------------------------------
def test_unknown_builtin_bench_rejected():
    with pytest.raises(ValueError, match="unknown builtin bench"):
        run_builtin_bench("nope")


@pytest.mark.slow
def test_builtin_sweep_record_and_seeded_regression(tmp_path):
    base = BenchLedger(str(tmp_path / "base.json"))
    cur = BenchLedger(str(tmp_path / "cur.json"))
    # min-of-3 keeps scheduler noise on a ~10 ms sweep from hiding
    # the seeded 2x slowdown below
    base.append(run_builtin_bench("sweep", k=3))
    # bit-identical code, same seed: exact metrics cannot regress
    cur.append(run_builtin_bench("sweep", k=3))
    clean = compare_ledgers(cur, base, kinds=("exact",))
    assert clean["regressions"] == []
    # the synthetic ~2x slowdown must trip the time gate
    slow = BenchLedger(str(tmp_path / "slow.json"))
    slow.append(run_builtin_bench("sweep", k=3, slowdown=2.0))
    bad = compare_ledgers(slow, base, kinds=("time",))
    assert bad["regressions"], render_comparison(bad)
    assert all(r["ratio"] > 1.15 for r in bad["regressions"])


@pytest.mark.slow
def test_perf_cli_record_compare_trend(tmp_path, capsys):
    ledger = str(tmp_path / "BENCH_tiny.json")
    baseline = str(tmp_path / "BASELINE_tiny.json")
    assert main(["perf", "record", "--ledger", baseline,
                 "--bench", "model_eval", "-k", "1"]) == 0
    assert main(["perf", "record", "--ledger", ledger,
                 "--bench", "model_eval", "-k", "1"]) == 0
    # identical rerun: exits 0
    assert main(["perf", "compare", "--ledger", ledger,
                 "--baseline", baseline, "--kinds", "exact"]) == 0
    # unknown kind: exits 2
    assert main(["perf", "compare", "--ledger", ledger,
                 "--baseline", baseline, "--kinds", "vibes"]) == 2
    assert main(["perf", "trend", "--ledger", ledger]) == 0
    out = capsys.readouterr().out
    assert "model_eval" in out and "perf trend" in out


def test_render_trend_empty_ledger(tmp_path):
    ledger = BenchLedger(str(tmp_path / "empty.json"))
    assert "no matching records" in render_trend(ledger)
