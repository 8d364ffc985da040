"""Out-of-core sweep gate: RSS budget, bit-identity, and kill/resume.

The acceptance gate for the :mod:`repro.storage` layer (PR 8).  A
sharded memmap sweep over the xl tier (>= 10^7 nnz at the default
scale) must

* complete with peak RSS under a configured budget — matrices stream
  from disk shard by shard instead of residing in every worker;
* produce records bit-identical to a serial in-RAM sweep on the tiny
  tier (attaching stored matrices must never change results);
* survive SIGKILL mid-sweep: ``--resume`` completes the journal with
  the pre-kill prefix intact and **zero** snapshot regeneration (the
  corpus is reattached by content address, not rebuilt).

Knobs (environment):

* ``REPRO_OOC_SCALE``          xl row-count multiplier (default 1.0)
* ``REPRO_OOC_RSS_BUDGET_MB``  peak-RSS budget for the gated sweep
  (default 2048)
* ``REPRO_OOC_JOBS``           worker processes (default 2)

Run with ``pytest -q -s benchmarks/bench_outofcore_sweep.py``; the
machine-readable verdict lands in
``benchmarks/output/<tier>/outofcore_sweep.json``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.obs.metrics import REGISTRY
from repro.storage import ensure_corpus_snapshot, open_corpus_snapshot

SCALE = float(os.environ.get("REPRO_OOC_SCALE", "1.0"))
BUDGET_MB = int(os.environ.get("REPRO_OOC_RSS_BUDGET_MB", "2048"))
JOBS = int(os.environ.get("REPRO_OOC_JOBS", "2"))
SEED = 0
SHARD_BYTES = 256 * 1024 * 1024

STORAGE_DIR = Path(__file__).parent / "output" / "storage"
XL_DIR = STORAGE_DIR / f"xl_{SEED}_{SCALE:g}"

#: common CLI tail for every gated sweep (Gray only: the point is the
#: storage layer, not reordering cost on 10^6-row graphs)
SWEEP_ARGS = ["--archs", "Rome", "--orderings", "Gray", "--kernels", "1d",
              "--jobs", str(JOBS), "--shard-bytes", str(SHARD_BYTES)]


def _env():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


@pytest.fixture(scope="module")
def xl_snapshot():
    """The content-addressed xl corpus (built once, reused by address)."""
    STORAGE_DIR.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    snap = ensure_corpus_snapshot(str(XL_DIR), tier="xl", seed=SEED,
                                  scale=SCALE)
    nnz = sum(e.nnz for e in snap.entries)
    print(f"\nxl snapshot: {len(snap.entries)} matrices, {nnz:,} nnz, "
          f"signature {snap.signature} "
          f"({time.perf_counter() - t0:.1f}s)")
    if SCALE >= 1.0:
        assert nnz >= 10_000_000, \
            f"xl tier must reach 10^7 nnz at scale>=1, got {nnz:,}"
    return snap


@pytest.fixture(scope="module")
def gated_sweep(xl_snapshot):
    """Run the sharded memmap sweep in a wrapper subprocess that reports
    its own peak RSS (self + workers), isolated from pytest's other
    children."""
    journal = STORAGE_DIR / "xl_reference.jsonl"
    journal.unlink(missing_ok=True)
    metrics = STORAGE_DIR / "xl_reference_metrics.json"
    wrapper = textwrap.dedent(f"""
        import json, resource, sys, time
        from repro.harness import cli
        t0 = time.perf_counter()
        rc = cli.main(["sweep", "--corpus", {str(XL_DIR)!r}]
                      + {SWEEP_ARGS!r}
                      + ["--journal", {str(journal)!r},
                         "--metrics", {str(metrics)!r},
                         "--manifest", {str(STORAGE_DIR / 'xl_manifest.json')!r}])
        kb = 1024.0
        print(json.dumps({{
            "rc": rc,
            "wall_s": round(time.perf_counter() - t0, 2),
            "self_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / kb,
            "child_max_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / kb,
        }}))
    """)
    proc = subprocess.run([sys.executable, "-c", wrapper], env=_env(),
                          capture_output=True, text=True, timeout=1800)
    assert proc.returncode == 0, \
        f"gated sweep failed:\n{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}"
    stats = json.loads(proc.stdout.strip().splitlines()[-1])
    # upper bound on concurrent RSS: the engine process plus every
    # worker at the single worst worker's peak
    stats["peak_mb"] = stats["self_mb"] + JOBS * stats["child_max_mb"]
    stats["journal"] = str(journal)
    print(f"gated sweep: {stats['wall_s']}s, engine "
          f"{stats['self_mb']:.0f} MB, worst worker "
          f"{stats['child_max_mb']:.0f} MB, bounded peak "
          f"{stats['peak_mb']:.0f} MB (budget {BUDGET_MB} MB)")
    return stats


def _journal_records(path):
    recs = []
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            d = json.loads(line)
            if d.get("type") != "record":
                continue
            r = d["data"]
            recs.append((r["matrix"], r["ordering"], r["kernel"],
                         r["architecture"], r["gflops_max"],
                         r["gflops_mean"], r["seconds"]))
    return sorted(recs)


def test_rss_budget(gated_sweep, xl_snapshot, emit_json):
    """The sharded memmap sweep stays under the configured RSS budget."""
    verdict = {
        "scale": SCALE, "jobs": JOBS, "shard_bytes": SHARD_BYTES,
        "budget_mb": BUDGET_MB, "snapshot": xl_snapshot.signature,
        "nnz": sum(e.nnz for e in xl_snapshot.entries),
        **{k: gated_sweep[k] for k in
           ("rc", "wall_s", "self_mb", "child_max_mb", "peak_mb")},
    }
    emit_json("outofcore_sweep", verdict)
    assert gated_sweep["peak_mb"] < BUDGET_MB, \
        (f"peak RSS {gated_sweep['peak_mb']:.0f} MB exceeds the "
         f"{BUDGET_MB} MB budget — sharding is not bounding memory")


def test_transport_bit_identity(tmp_path):
    """jobs=2 memmap-over-snapshot records == serial in-RAM records
    (tiny)."""
    from repro.generators import build_corpus
    from repro.harness.engine import SweepEngine
    from repro.machine import get_architecture

    snap = ensure_corpus_snapshot(str(tmp_path / "tiny"), tier="tiny",
                                  seed=SEED, limit=4, groups=("Banded",))
    inram = build_corpus("tiny", seed=SEED, groups=("Banded",))[:4]
    archs = [get_architecture("Rome")]

    def run(corpus, jobs):
        engine = SweepEngine(corpus, archs, ["RCM", "Gray"],
                             kernels=("1d",), seed=SEED, jobs=jobs)
        result = engine.run()
        assert not result.failed
        return sorted((r.matrix, r.ordering, r.kernel, r.architecture,
                       r.gflops_max, r.gflops_mean, r.seconds)
                      for r in result.records)

    mm = run(list(snap.entries), 2)
    ref = run(inram, 1)
    assert mm == ref, \
        "pool sweep over the snapshot changed records vs serial in-RAM"


def test_sigkill_resume_zero_regeneration(gated_sweep, xl_snapshot):
    """SIGKILL mid-sweep, then --resume: the pre-kill journal prefix is
    preserved, the completed journal matches the uninterrupted run, and
    the snapshot is reattached with zero regeneration."""
    journal = STORAGE_DIR / "xl_killed.jsonl"
    journal.unlink(missing_ok=True)
    cmd = [sys.executable, "-m", "repro", "sweep",
           "--corpus", str(XL_DIR)] + SWEEP_ARGS + \
          ["--journal", str(journal)]
    proc = subprocess.Popen(cmd, env=_env(), start_new_session=True,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        deadline = time.time() + 600
        while time.time() < deadline:
            if journal.exists() and len(_journal_records(journal)) >= 2:
                break
            if proc.poll() is not None:
                break
            time.sleep(0.1)
        killed = proc.poll() is None
        if killed:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
    prefix = journal.read_bytes()
    assert _journal_records(journal), "no records before the kill"
    print(f"\nkilled={killed} with {len(_journal_records(journal))} "
          "record(s) journaled")

    # reattach by content address: nothing may be rebuilt or quarantined
    built0 = REGISTRY.counter("storage.snapshots_built").value
    quar0 = REGISTRY.counter("storage.snapshots_quarantined").value
    snap = ensure_corpus_snapshot(str(XL_DIR), tier="xl", seed=SEED,
                                  scale=SCALE)
    assert snap.signature == xl_snapshot.signature
    built = REGISTRY.counter("storage.snapshots_built").value - built0
    quar = REGISTRY.counter("storage.snapshots_quarantined").value - quar0
    assert built == 0 and quar == 0, \
        (f"resume rebuilt {built} / quarantined {quar} snapshot "
         "matrices — reattachment is not content-addressed")

    resume = subprocess.run(cmd + ["--resume"], env=_env(),
                            capture_output=True, text=True, timeout=1800)
    assert resume.returncode == 0, \
        f"resume failed:\n{resume.stdout[-2000:]}\n{resume.stderr[-2000:]}"
    final = journal.read_bytes()
    assert final.startswith(prefix), \
        "resume rewrote the pre-kill journal prefix"
    assert _journal_records(journal) == \
        _journal_records(gated_sweep["journal"]), \
        "resumed journal differs from the uninterrupted reference run"
    # verify the snapshot arrays really survived untouched
    open_corpus_snapshot(str(XL_DIR), verify="crc")
