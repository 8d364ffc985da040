"""Harness-artifact and cache-observability checks.

Runs one real (tiny) sweep into a scratch directory with every
artifact enabled — journal, ``sweep_metrics.json``, run manifest and
trace sidecar — then validates the whole set:

* the artifact schemas, via :func:`repro.obs.report.check_artifacts`
  (this suite subsumes ``repro report --check``);
* **cross-counts** — every completed cell must have journaled exactly
  one record line: the journal's record count is compared against the
  engine's cell metrics, so a dropped or unflushed journal line is a
  finding, not silent data loss on the next resume;
* the ``sweep_metrics.json`` shape (stages, cache, cells, registry);
* an empty-journal probe: a zero-byte journal must be *flagged* by the
  artifact validator even though the engine accepts it on resume.

Cache observability rides along: the three caches sharing the stats
schema (ordering cache, advisor LRU, reuse memo) are checked idle and
after a seeded workload — shared keys present, ``hit_rate`` finite and
in ``[0, 1]`` at zero accesses — and the ordering cache is
differentially checked against a fresh ``compute_ordering``, so a
stale entry (wrong permutation under a colliding key) is caught.  A
disk round trip then checks that a second cache instance serves the
stored permutation and that a byte-flipped or entry-swapped file is
recomputed rather than served.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from ..generators import build_corpus
from ..machine import reuse as reuse_mod
from ..machine.arch import get_architecture
from ..obs import cachestats
from ..obs import report as report_mod
from ..obs import trace as trace_mod
from ..obs.trace import span
from ..reorder import registry
from .findings import CheckReport

SUITE = "artifacts"

#: keys ``sweep_metrics.json`` must always carry
METRICS_KEYS = ("jobs", "wall_seconds", "stages", "cache", "cells",
                "workers", "registry")


def _check_caches(report: CheckReport, corpus) -> None:
    from ..advisor.cache import LRUCache
    from ..harness.runner import OrderingCache

    entry = corpus[0]

    def rate_ok(stats: dict) -> bool:
        rate = stats.get("hit_rate")
        return (rate is not None and np.isfinite(rate)
                and 0.0 <= rate <= 1.0
                and all(k in stats for k in cachestats.CACHE_STATS_KEYS))

    # idle: zero accesses must not divide by zero anywhere
    for cache_name, stats_fn in (
            ("ordering-cache", lambda: OrderingCache().stats),
            ("advisor-lru", lambda: LRUCache(capacity=2).stats),
            ("reuse-memo", reuse_mod.reuse_cache_stats)):
        try:
            stats = stats_fn()
            ok = rate_ok(stats)
            detail = f"idle stats {stats!r}"
        except Exception as exc:  # noqa: BLE001 - report
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        report.check(ok, SUITE, "cache-hit-rate-finite",
                     f"cache={cache_name} state=idle", detail)

    # workload: the ordering cache must keep serving the same result a
    # fresh computation produces
    cache = OrderingCache()
    fresh = registry.compute_ordering(entry.matrix, "RCM", nparts=4,
                                      seed=0)
    first = cache.get(entry.matrix, entry.name, "RCM", nparts=4, seed=0)
    second = cache.get(entry.matrix, entry.name, "RCM", nparts=4, seed=0)
    report.check(
        bool(np.array_equal(first.perm, fresh.perm))
        and bool(np.array_equal(second.perm, fresh.perm)),
        SUITE, "cache-serves-fresh-result",
        f"cache=ordering-cache matrix={entry.name}",
        "cached permutation differs from a fresh compute_ordering "
        "(stale or cross-wired cache entry)")
    try:
        ok = rate_ok(cache.stats)
        detail = f"workload stats {cache.stats!r}"
    except Exception as exc:  # noqa: BLE001 - report
        ok, detail = False, f"{type(exc).__name__}: {exc}"
    report.check(ok, SUITE, "cache-hit-rate-finite",
                 "cache=ordering-cache state=active", detail)

    # disk round trip: a second instance must serve exactly the fresh
    # permutation, and a corrupted entry must be recomputed, not served
    subject = f"cache=ordering-cache matrix={entry.name}"
    with tempfile.TemporaryDirectory() as tmp:
        OrderingCache(tmp).get(entry.matrix, entry.name, "RCM", nparts=4,
                               seed=0)
        (name,) = os.listdir(tmp)
        path = os.path.join(tmp, name)
        with open(path, "rb") as fh:
            intact = fh.read()
        flipped = bytearray(intact)
        flipped[-1] ^= 0x01
        # the body is the permutation's 8-byte entries; swapping two
        # keeps a bijection, so only the checksum can tell
        head, body = intact[:-8 * fresh.n], intact[-8 * fresh.n:]
        swapped = head + body[8:16] + body[:8] + body[16:]
        for label, data in (("intact", intact), ("flipped-byte", flipped),
                            ("swapped-entries", swapped)):
            with open(path, "wb") as fh:
                fh.write(data)
            probe = OrderingCache(tmp)
            got = probe.get(entry.matrix, entry.name, "RCM", nparts=4,
                            seed=0)
            served = probe.stats["disk_hits"] == 1
            report.check(
                bool(np.array_equal(got.perm, fresh.perm))
                and served == (label == "intact"),
                SUITE, "cache-rejects-corrupt-entry",
                f"{subject} entry={label}",
                f"disk_hits={probe.stats['disk_hits']}: a corrupt entry "
                "was served, or an intact one was not")


def check_artifacts(seed: int = 0, workdir: str | None = None) -> CheckReport:
    """Produce and validate one full artifact set."""
    from ..harness.engine import SweepEngine, SweepJournal

    report = CheckReport(suites=[SUITE])
    corpus = build_corpus("tiny", seed=seed)[:2]
    archs = [get_architecture("Rome")]

    with span("check.artifacts"), tempfile.TemporaryDirectory() as tmp:
        out = workdir or tmp
        journal = os.path.join(out, "check_sweep.jsonl")
        metrics = os.path.join(out, "check_metrics.json")
        manifest = os.path.join(out, "check_manifest.json")
        trace = os.path.join(out, "check_trace.json")
        sidecar = trace_mod.sidecar_path(trace)

        was_enabled = trace_mod.TRACER.enabled
        engine = SweepEngine(corpus, archs, ["RCM", "Gray"],
                             seed=seed, journal_path=journal,
                             manifest_path=manifest)
        try:
            # the engine records spans while the global tracer is on —
            # same contract as the sweep CLI; the sidecar gets every
            # event the moment it finishes, so the link checks below
            # also cover the crash-log path
            trace_mod.TRACER.enable(jsonl_path=sidecar)
            engine.run()
            trace_mod.TRACER.save(trace)
        finally:
            trace_mod.TRACER.disable()  # closes the sidecar handle
            if was_enabled:
                trace_mod.TRACER.enable()
            else:
                trace_mod.TRACER.clear()
        engine.metrics.save(metrics)

        for problem in report_mod.check_artifacts(
                trace_path=trace, journal_path=journal,
                manifest_path=manifest,
                require_spans=("reorder", "reuse_stats", "model_eval"),
                sidecar_path=sidecar):
            report.fail(SUITE, "artifact-schema", "sweep artifacts",
                        problem)
        report.case(4)  # trace + sidecar + journal + manifest validated

        _sig, records, _failures = SweepJournal.load(journal)
        cells = engine.metrics.cells
        journaled = len(records)
        completed = cells.get("completed", 0) + cells.get("resumed", 0)
        report.check(
            journaled == completed == cells.get("total", -1),
            SUITE, "journal-matches-metrics", "sweep artifacts",
            f"journal has {journaled} record line(s) but the engine "
            f"completed {completed} of {cells.get('total')} cell(s) — "
            "a journal line was dropped or never flushed")

        with open(metrics, "rt") as f:
            metrics_data = json.load(f)
        missing = [k for k in METRICS_KEYS if k not in metrics_data]
        report.check(
            not missing, SUITE, "metrics-schema", "sweep_metrics.json",
            f"missing required key(s) {missing}")

        # an empty journal is a valid resume point for the engine but
        # must be flagged as a broken artifact by the validator
        empty = os.path.join(out, "empty.jsonl")
        open(empty, "wt").close()
        problems = report_mod.check_artifacts(journal_path=empty)
        report.check(
            bool(problems), SUITE, "empty-journal-flagged", empty,
            "check_artifacts accepted a journal with no readable "
            "header")

    _check_caches(report, corpus)
    return report
