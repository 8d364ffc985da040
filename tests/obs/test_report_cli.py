"""`repro sweep --trace` → `repro report` end to end, plus --check."""

import json

import pytest

from repro.harness.cli import main
from repro.obs import trace as obs_trace


@pytest.fixture(autouse=True)
def clean_global_tracer():
    yield
    obs_trace.disable()
    obs_trace.TRACER.clear()


@pytest.fixture
def traced_run(tmp_path):
    paths = {
        "trace": str(tmp_path / "trace.json"),
        "journal": str(tmp_path / "journal.jsonl"),
        "manifest": str(tmp_path / "run_manifest.json"),
        "metrics": str(tmp_path / "sweep_metrics.json"),
    }
    rc = main(["sweep", "--tier", "tiny", "--limit", "2",
               "--archs", "Rome", "--orderings", "RCM,Gray",
               "--jobs", "2",
               "--trace", paths["trace"],
               "--journal", paths["journal"],
               "--manifest", paths["manifest"],
               "--metrics", paths["metrics"]])
    assert rc == 0
    return paths


def test_traced_sweep_leaves_all_four_artifacts(traced_run):
    trace = json.load(open(traced_run["trace"]))
    names = {ev["name"] for ev in trace["traceEvents"]}
    assert names >= {"reorder", "reuse_stats", "model_eval"}
    # the crash-safe sidecar mirrors the same events line by line
    sidecar = [json.loads(ln)
               for ln in open(traced_run["trace"] + "l")]
    assert len(sidecar) == len(trace["traceEvents"])
    metrics = json.load(open(traced_run["metrics"]))
    manifest = json.load(open(traced_run["manifest"]))
    assert metrics["run_id"] == manifest["run_id"]
    assert "reuse.builds" in metrics["registry"]


def test_report_renders_breakdowns(traced_run, capsys):
    assert main(["report", "--trace", traced_run["trace"],
                 "--journal", traced_run["journal"],
                 "--manifest", traced_run["manifest"]]) == 0
    out = capsys.readouterr().out
    assert "per-stage breakdown" in out
    assert "reordering time by algorithm" in out
    assert "model evaluation by ordering" in out
    assert "slowest spans" in out
    assert "RCM" in out and "Gray" in out
    assert "model_eval" in out


def test_report_check_passes_on_valid_artifacts(traced_run):
    assert main(["report", "--check",
                 "--trace", traced_run["trace"],
                 "--journal", traced_run["journal"],
                 "--manifest", traced_run["manifest"]]) == 0


def test_report_check_fails_on_missing_or_broken_trace(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["report", "--check", "--trace", missing,
                 "--manifest", ""]) == 1

    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps({"traceEvents": [
        {"ph": "X", "ts": 0, "dur": 1, "pid": 1, "tid": 1}]}))
    assert main(["report", "--check", "--trace", str(broken),
                 "--manifest", ""]) == 1


def test_report_check_fails_when_required_spans_are_absent(tmp_path):
    sparse = tmp_path / "sparse.json"
    sparse.write_text(json.dumps({"traceEvents": [
        {"name": "other", "ph": "X", "ts": 0.0, "dur": 1.0,
         "pid": 1, "tid": 1}]}))
    assert main(["report", "--check", "--trace", str(sparse),
                 "--manifest", ""]) == 1


def test_report_on_missing_artifacts_degrades_gracefully(tmp_path, capsys):
    assert main(["report", "--trace", str(tmp_path / "none.json"),
                 "--journal", "", "--manifest", ""]) == 0
    assert "no artifacts" in capsys.readouterr().out


def test_quiet_silences_status_but_not_data(traced_run, capsys):
    assert main(["--quiet", "report",
                 "--trace", traced_run["trace"],
                 "--manifest", traced_run["manifest"]]) == 0
    captured = capsys.readouterr()
    assert "per-stage breakdown" in captured.out
    assert captured.err == ""


def test_report_check_finds_the_sidecar_of_a_non_json_trace(
        tmp_path, capsys):
    trace = str(tmp_path / "run.trace")
    assert main(["sweep", "--tier", "tiny", "--limit", "1",
                 "--archs", "Rome", "--orderings", "RCM",
                 "--trace", trace, "--manifest", "",
                 "--metrics", ""]) == 0
    assert (tmp_path / "run.trace.jsonl").exists()
    capsys.readouterr()
    assert main(["report", "--check", "--trace", trace,
                 "--manifest", ""]) == 0
    out = capsys.readouterr().out
    assert f"(sidecar {trace}.jsonl consistent)" in out
