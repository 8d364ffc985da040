"""repro.obs.perf — the benchmark ledger and regression gates.

The paper's argument rests on careful performance measurement, and so
does every ROADMAP "measurable win" claim — but claims rot silently
without history.  This module closes the loop:

* :func:`metric` / :func:`bench_record` — one **BenchRecord** schema
  for every benchmark artifact: bench name, tier, seed, git SHA,
  corpus/run signature, and a metric dict where each metric carries
  its unit, its *polarity* (higher- or lower-is-better), its raw
  min-of-k ``samples`` and an optional per-metric tolerance band.
* :class:`BenchLedger` — an append-only per-tier JSON history
  (``BENCH_<tier>.json``) the benches and ``repro perf record`` write
  through; appends are atomic (tmp + rename), so a killed run never
  tears the history.
* :func:`compare_records` / :func:`compare_ledgers` — noise-aware
  baseline comparison: per-metric *worse-direction* ratios over the
  min-of-k values, tolerance bands per metric kind (**time** metrics
  default to a ±15 % band; **exact** metrics — counts, deterministic
  domain geomeans — default to 0), and a geomean ratio across all
  compared metrics.  Any metric outside its band is a regression and
  ``repro perf compare`` exits non-zero, which is the CI gate.
* ``repro perf record`` — runs small built-in deterministic
  benchmarks (an inline tiny sweep, a model-evaluation pass) k times
  and appends one BenchRecord each; ``repro perf trend`` renders the
  history.

Metric kinds
------------
``time``   unit in {s, seconds, ms} — noisy, compared within a band.
``exact``  everything else (counts, ratios, geomeans) — deterministic
           given the same code and seed, compared exactly by default;
           a drift here is a behaviour change, not noise.
"""

from __future__ import annotations

import json
import math
import os
import time

from ..errors import HarnessError
from .log import get_logger

__all__ = ["metric", "bench_record", "BenchLedger", "compare_records",
           "compare_ledgers", "render_comparison", "render_trend",
           "BUILTIN_BENCHES", "run_builtin_bench", "add_perf_parser",
           "DEFAULT_TIME_TOLERANCE"]

log = get_logger("perf")

LEDGER_VERSION = 1

#: units treated as wall-clock (noisy) measurements
TIME_UNITS = frozenset({"s", "sec", "seconds", "ms", "milliseconds"})

#: default tolerance band for time metrics (fraction of the baseline);
#: exact metrics default to 0 — any worse-direction drift is flagged
DEFAULT_TIME_TOLERANCE = 0.15


# ----------------------------------------------------------------------
# schema
# ----------------------------------------------------------------------
def metric_kind(unit: str) -> str:
    return "time" if unit in TIME_UNITS else "exact"


def metric(value: float | None = None, samples=None, unit: str = "",
           polarity: str = "lower", tolerance: float | None = None) -> dict:
    """One BenchRecord metric.

    ``samples`` holds the raw repeated measurements; ``value`` defaults
    to the best of them under ``polarity`` (min for lower-is-better,
    max for higher) — the min-of-k convention that suppresses
    scheduling noise without averaging it into the signal.
    """
    if polarity not in ("lower", "higher"):
        raise ValueError(f"polarity must be 'lower' or 'higher', "
                         f"got {polarity!r}")
    samples = [float(s) for s in (samples or [])]
    if value is None:
        if not samples:
            raise ValueError("metric needs a value or samples")
        value = min(samples) if polarity == "lower" else max(samples)
    out = {"value": float(value), "unit": unit, "polarity": polarity,
           "kind": metric_kind(unit)}
    if samples:
        out["samples"] = samples
    if tolerance is not None:
        out["tolerance"] = float(tolerance)
    return out


def bench_record(name: str, tier: str, seed, metrics: dict,
                 signature=None, context: dict | None = None) -> dict:
    """Assemble one BenchRecord with provenance (git SHA, timestamp)."""
    from .manifest import _git_state

    sha, dirty = _git_state()
    return {
        "name": name, "tier": tier, "seed": seed,
        "git_sha": sha, "git_dirty": dirty,
        "signature": signature,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "metrics": dict(metrics),
        "context": dict(context or {}),
    }


def _is_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _is_record(rec) -> bool:
    """Whether ``rec`` is a BenchRecord the comparisons and the trend
    table can read: string name and git SHA, finite metric values."""
    if not (isinstance(rec, dict) and isinstance(rec.get("name"), str)
            and isinstance(rec.get("git_sha") or "", str)
            and isinstance(rec.get("metrics"), dict)):
        return False
    return all(isinstance(m, dict) and _is_number(m.get("value"))
               and isinstance(m.get("unit", ""), str)
               and isinstance(m.get("kind", ""), str)
               and m.get("polarity", "lower") in ("lower", "higher")
               and (m.get("tolerance") is None or _is_number(m["tolerance"]))
               and isinstance(m.get("samples", []), list)
               for m in rec["metrics"].values())


class BenchLedger:
    """Append-only JSON history of BenchRecords for one tier."""

    def __init__(self, path: str) -> None:
        self.path = str(path)

    def load(self) -> dict:
        """The ledger document (empty if the file does not exist);
        :class:`HarnessError` if the file is not UTF-8 JSON holding a
        ``records`` list of well-formed BenchRecords."""
        if not os.path.exists(self.path):
            return {"version": LEDGER_VERSION, "records": []}
        try:
            with open(self.path, "rb") as f:
                doc = json.loads(f.read())
        except (OSError, ValueError, RecursionError) as exc:
            # ValueError covers both bad JSON and bad UTF-8
            raise HarnessError(
                f"{self.path}: unreadable bench ledger: {exc}") from exc
        if not isinstance(doc, dict) or \
                not isinstance(doc.get("records"), list):
            raise HarnessError(f"{self.path}: not a bench ledger "
                               "(expected an object with a 'records' "
                               "list)")
        for i, rec in enumerate(doc["records"]):
            if not _is_record(rec):
                raise HarnessError(f"{self.path}: record {i} is not a "
                                   "well-formed BenchRecord")
        return doc

    def records(self, name: str | None = None) -> list:
        recs = self.load()["records"]
        if name is not None:
            recs = [r for r in recs if r.get("name") == name]
        return recs

    def latest(self) -> dict:
        """The most recent record per bench name."""
        out: dict = {}
        for rec in self.load()["records"]:
            out[rec.get("name")] = rec
        return out

    def append(self, record: dict) -> None:
        """Append one record atomically (tmp file + rename)."""
        doc = self.load()
        doc["version"] = LEDGER_VERSION
        doc["records"].append(record)
        tmp = self.path + ".tmp"
        with open(tmp, "wt") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
        os.replace(tmp, self.path)


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------
def _worse_ratio(base: float, cur: float, polarity: str) -> float:
    """> 1 means the current value is worse than the baseline."""
    num, den = (cur, base) if polarity == "lower" else (base, cur)
    if den == 0:
        return 1.0 if num == 0 else math.inf
    return num / den


def compare_records(current: dict, baseline: dict,
                    time_tolerance: float | None = None,
                    kinds=("time", "exact")) -> dict:
    """Compare two BenchRecords of the same bench, metric by metric.

    Returns ``{"rows": [...], "regressions": [...], "missing": [...]}``
    where each row carries the worse-direction ratio and its band.
    """
    if time_tolerance is None:
        time_tolerance = DEFAULT_TIME_TOLERANCE
    rows, regressions, missing = [], [], []
    base_metrics = baseline.get("metrics", {})
    cur_metrics = current.get("metrics", {})
    for mname, base in sorted(base_metrics.items()):
        kind = base.get("kind", metric_kind(base.get("unit", "")))
        if kind not in kinds:
            continue
        cur = cur_metrics.get(mname)
        if cur is None:
            missing.append(mname)
            continue
        polarity = cur.get("polarity", base.get("polarity", "lower"))
        tol = cur.get("tolerance", base.get("tolerance"))
        if tol is None:
            tol = time_tolerance if kind == "time" else 0.0
        ratio = _worse_ratio(float(base["value"]), float(cur["value"]),
                             polarity)
        regressed = ratio > 1.0 + tol + 1e-12
        row = {"metric": mname, "kind": kind, "unit": cur.get("unit", ""),
               "polarity": polarity, "base": float(base["value"]),
               "current": float(cur["value"]),
               "ratio": ratio, "tolerance": tol, "regressed": regressed}
        rows.append(row)
        if regressed:
            regressions.append(row)
    return {"rows": rows, "regressions": regressions, "missing": missing}


def _geomean(ratios) -> float:
    finite = [r for r in ratios if 0 < r < math.inf]
    if not finite:
        return 1.0 if not ratios else math.inf
    return math.exp(sum(math.log(r) for r in finite) / len(finite))


def compare_ledgers(current: "BenchLedger", baseline: "BenchLedger",
                    benches=None, time_tolerance: float | None = None,
                    kinds=("time", "exact")) -> dict:
    """Compare the latest record per bench across two ledgers."""
    cur_latest = current.latest()
    base_latest = baseline.latest()
    names = sorted(benches if benches else base_latest)
    report = {"benches": {}, "regressions": [], "missing_benches": [],
              "geomean_ratio": 1.0}
    all_ratios: list = []
    for name in names:
        base = base_latest.get(name)
        cur = cur_latest.get(name)
        if base is None or cur is None:
            report["missing_benches"].append(name)
            continue
        cmp = compare_records(cur, base, time_tolerance=time_tolerance,
                              kinds=kinds)
        report["benches"][name] = cmp
        all_ratios.extend(row["ratio"] for row in cmp["rows"])
        report["regressions"].extend(
            dict(row, bench=name) for row in cmp["regressions"])
    report["geomean_ratio"] = _geomean(all_ratios)
    return report


def render_comparison(report: dict) -> str:
    from ..util import format_table

    rows = []
    for bench, cmp in sorted(report["benches"].items()):
        for row in cmp["rows"]:
            flag = "REGRESSED" if row["regressed"] else (
                "improved" if row["ratio"] < 1.0 - row["tolerance"] - 1e-12
                else "ok")
            rows.append([bench, row["metric"], row["kind"],
                         f"{row['base']:.6g}", f"{row['current']:.6g}",
                         "inf" if row["ratio"] == math.inf
                         else f"{row['ratio']:.4f}",
                         f"±{row['tolerance']:.0%}", flag])
    lines = ["perf comparison (ratio > 1 means worse)"]
    if rows:
        lines.append(format_table(
            ["bench", "metric", "kind", "baseline", "current", "ratio",
             "band", ""], rows))
    geo = report["geomean_ratio"]
    lines.append(f"geomean worse-ratio over {len(rows)} metric(s): "
                 + ("inf" if geo == math.inf else f"{geo:.4f}"))
    if report["missing_benches"]:
        lines.append("missing bench(es): "
                     + ", ".join(report["missing_benches"]))
    n = len(report["regressions"])
    lines.append(f"{n} regression(s)" if n else
                 "no regressions: every metric within its band")
    return "\n".join(lines)


def render_trend(ledger: "BenchLedger", bench: str | None = None,
                 metric_name: str | None = None) -> str:
    from ..util import format_table

    rows = []
    for rec in ledger.records(bench):
        sha = (rec.get("git_sha") or "?")[:10]
        for mname, m in sorted(rec.get("metrics", {}).items()):
            if metric_name and mname != metric_name:
                continue
            rows.append([rec.get("created", "?"), rec.get("name"),
                         mname, f"{m['value']:.6g}", m.get("unit", ""),
                         len(m.get("samples", [])) or 1, sha])
    if not rows:
        return "perf trend: no matching records"
    return ("perf trend (oldest first)\n"
            + format_table(["created", "bench", "metric", "value",
                            "unit", "k", "git"], rows))


# ----------------------------------------------------------------------
# built-in benches for `repro perf record`
# ----------------------------------------------------------------------
def _builtin_sweep(tier: str, seed: int, limit: int = 3) -> tuple:
    """One inline tiny sweep; wall + stage times and exact counts."""
    from ..generators import build_corpus
    from ..harness.engine import SweepEngine
    from ..harness.runner import OrderingCache
    from ..machine import get_architecture

    corpus = build_corpus(tier, seed=seed)[:limit]
    engine = SweepEngine(corpus, [get_architecture("Rome")],
                         ["RCM", "Gray"], cache=OrderingCache(),
                         seed=seed)
    t0 = time.perf_counter()
    result = engine.run()
    wall = time.perf_counter() - t0
    values = {
        "wall_seconds": wall,
        "reorder_seconds": engine.metrics.stages["reorder"],
        "model_eval_seconds": engine.metrics.stages["model_eval"],
        "cells_completed": engine.metrics.cells["completed"],
        "cells_failed": len(result.failed),
    }
    meta = {
        "wall_seconds": {"unit": "s", "polarity": "lower"},
        "reorder_seconds": {"unit": "s", "polarity": "lower"},
        "model_eval_seconds": {"unit": "s", "polarity": "lower"},
        "cells_completed": {"unit": "cells", "polarity": "higher"},
        "cells_failed": {"unit": "cells", "polarity": "lower"},
    }
    return values, meta


def _builtin_model_eval(tier: str, seed: int) -> tuple:
    """Model evaluation over every architecture on one matrix."""
    from ..generators import build_corpus
    from ..machine import architecture_names, get_architecture
    from ..machine.bench import simulate_measurement
    from ..machine.model import PerfModel
    from ..spmv.registry import KERNELS

    entry = build_corpus(tier, seed=seed)[0]
    t0 = time.perf_counter()
    total = 0.0
    cells = 0
    for arch_name in architecture_names():
        arch = get_architecture(arch_name)
        model = PerfModel(arch)
        for kernel in KERNELS:
            rec = simulate_measurement(entry.matrix, arch, kernel,
                                       entry.name, "original",
                                       model=model)
            total += rec.seconds
            cells += 1
    wall = time.perf_counter() - t0
    values = {"wall_seconds": wall, "predictions": cells,
              "predicted_total_seconds": total}
    meta = {
        "wall_seconds": {"unit": "s", "polarity": "lower"},
        "predictions": {"unit": "cells", "polarity": "higher"},
        # deterministic model output: any drift is a behaviour change
        "predicted_total_seconds": {"unit": "model-s",
                                    "polarity": "lower"},
    }
    return values, meta


BUILTIN_BENCHES = {
    "sweep": _builtin_sweep,
    "model_eval": _builtin_model_eval,
}


def run_builtin_bench(name: str, tier: str = "tiny", seed: int = 0,
                      k: int = 3, slowdown: float = 1.0) -> dict:
    """Run one built-in bench ``k`` times and assemble its BenchRecord.

    ``slowdown`` > 1 busy-waits after each repetition in proportion to
    its measured time — a *seeded synthetic regression* knob the CI
    gate uses to prove ``perf compare`` actually catches slowdowns.
    """
    fn = BUILTIN_BENCHES.get(name)
    if fn is None:
        raise ValueError(f"unknown builtin bench {name!r} "
                         f"(have: {', '.join(sorted(BUILTIN_BENCHES))})")
    samples: dict = {}
    meta: dict = {}
    for _ in range(max(1, k)):
        t0 = time.perf_counter()
        values, meta = fn(tier, seed)
        elapsed = time.perf_counter() - t0
        if slowdown > 1.0:
            deadline = t0 + elapsed * slowdown
            while time.perf_counter() < deadline:
                pass
            stretch = (time.perf_counter() - t0) / max(elapsed, 1e-12)
            for mname, m in meta.items():
                if metric_kind(m["unit"]) == "time":
                    values[mname] *= stretch
        for mname, value in values.items():
            samples.setdefault(mname, []).append(float(value))
    metrics = {}
    for mname, m in meta.items():
        kind = metric_kind(m["unit"])
        vals = samples[mname]
        if kind == "exact" and len(set(vals)) != 1:
            raise RuntimeError(
                f"builtin bench {name!r}: exact metric {mname!r} is not "
                f"stable across repetitions: {vals}")
        metrics[mname] = metric(samples=vals, unit=m["unit"],
                                polarity=m["polarity"],
                                tolerance=m.get("tolerance"))
    return bench_record(name=name, tier=tier, seed=seed, metrics=metrics,
                        context={"k": k, "builtin": True,
                                 "slowdown": slowdown})


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _cmd_perf_record(args) -> int:
    ledger = BenchLedger(args.ledger)
    names = (args.bench.split(",") if args.bench
             else sorted(BUILTIN_BENCHES))
    for name in names:
        rec = run_builtin_bench(name.strip(), tier=args.tier,
                                seed=args.seed, k=args.k,
                                slowdown=args.slowdown)
        ledger.append(rec)
        log.info("recorded %s (%d metric(s), k=%d) to %s", name,
                 len(rec["metrics"]), args.k, args.ledger)
    print(render_trend(ledger))
    return 0


def _cmd_perf_compare(args) -> int:
    kinds = tuple(k.strip() for k in args.kinds.split(",") if k.strip())
    unknown = [k for k in kinds if k not in ("time", "exact")]
    if unknown:
        log.error("unknown metric kind(s) %s; valid: time, exact",
                  unknown)
        return 2
    benches = (args.bench.split(",") if args.bench else None)
    report = compare_ledgers(
        BenchLedger(args.ledger), BenchLedger(args.baseline),
        benches=benches, time_tolerance=args.time_tolerance,
        kinds=kinds)
    print(render_comparison(report))
    return 1 if report["regressions"] else 0


def _cmd_perf_trend(args) -> int:
    print(render_trend(BenchLedger(args.ledger),
                       bench=args.bench or None,
                       metric_name=args.metric or None))
    return 0


def _cmd_perf_merge_trace(args) -> int:
    from .report import merge_traces

    n = merge_traces(args.traces, args.out)
    log.info("wrote %s (%d events from %d trace(s); load in "
             "https://ui.perfetto.dev)", args.out, n, len(args.traces))
    return 0


def add_perf_parser(sub) -> None:
    """Attach the ``perf`` subcommand tree to the main CLI."""
    p = sub.add_parser(
        "perf",
        help="benchmark ledger: record/compare/trend performance "
             "history with regression gates")
    psub = p.add_subparsers(dest="perf_command", required=True)

    r = psub.add_parser("record",
                        help="run the built-in benches k times and "
                             "append BenchRecords to a ledger")
    r.add_argument("--ledger", required=True,
                   help="BENCH_<tier>.json history file")
    r.add_argument("--bench", default="",
                   help="comma-separated builtin benches (default: "
                        + ", ".join(sorted(BUILTIN_BENCHES)) + ")")
    r.add_argument("--tier", default="tiny",
                   choices=("tiny", "small", "medium"))
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("-k", type=int, default=3,
                   help="repetitions per bench (min-of-k)")
    r.add_argument("--slowdown", type=float, default=1.0,
                   help="synthetic slowdown factor for gate self-tests "
                        "(busy-waits to stretch time metrics)")
    r.set_defaults(func=_cmd_perf_record)

    c = psub.add_parser("compare",
                        help="compare a ledger against a baseline; "
                             "exit non-zero on any regression")
    c.add_argument("--ledger", required=True,
                   help="the current ledger (latest record per bench)")
    c.add_argument("--baseline", required=True,
                   help="the baseline ledger to compare against")
    c.add_argument("--bench", default="",
                   help="comma-separated bench subset")
    c.add_argument("--kinds", default="time,exact",
                   help="metric kinds to gate on (time, exact); use "
                        "'exact' alone when comparing across machines")
    c.add_argument("--time-tolerance", type=float, default=None,
                   help="tolerance band for time metrics "
                        f"(default {DEFAULT_TIME_TOLERANCE})")
    c.set_defaults(func=_cmd_perf_compare)

    t = psub.add_parser("trend", help="render a ledger's history")
    t.add_argument("--ledger", required=True)
    t.add_argument("--bench", default="")
    t.add_argument("--metric", default="")
    t.set_defaults(func=_cmd_perf_trend)

    m = psub.add_parser("merge-trace",
                        help="merge per-process Chrome traces (server "
                             "+ loadgen) into one correlated timeline")
    m.add_argument("traces", nargs="+",
                   help="trace .json/.jsonl files to merge")
    m.add_argument("--out", default="merged_trace.json")
    m.set_defaults(func=_cmd_perf_merge_trace)
