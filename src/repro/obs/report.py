"""Render and validate observability artifacts (``repro report``).

Consumes the three artifacts a traced sweep leaves behind —
``trace.json`` (Chrome trace events), the JSONL journal, and
``run_manifest.json`` — and renders per-stage / per-algorithm time
breakdowns plus the top-k slowest spans, the same decomposition the
paper uses to explain its results (per-stage reordering overhead in
Table 5 against the per-cell speedups of Figs. 2–5).

:func:`validate_trace` doubles as the schema gate behind
``repro report --check``: every event must carry the Chrome
trace-event required keys, ``ts``/``dur`` must be non-negative and
mutually consistent (complete ``X`` events on one thread either nest
or are disjoint — a partial overlap means a broken clock or a torn
merge), and ``B``/``E`` duration events must match up per thread.

:func:`validate_links` extends the gate to the correlation ids a
trace context adds (``span_id``/``parent_id``/``trace_id`` in
``args``): a ``parent_id`` must name a span present in the same
trace (orphans mean a torn merge or a corrupted sidecar), and a
child span's ``[ts, ts+dur]`` interval must sit inside its parent's
— a child that *exceeds* its parent means clock skew or corrupted
durations.  Cross-process links a server records for a client span
it cannot see locally use the ``remote_parent`` arg instead, which
this check deliberately ignores.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict

__all__ = ["load_trace", "load_sidecar", "validate_trace",
           "validate_links", "merge_traces", "stage_breakdown",
           "attr_breakdown", "top_spans", "render_report",
           "check_artifacts"]

#: tolerance (µs) for nesting checks, covering ts/dur rounding.
_EPS_US = 0.01

_REQUIRED = ("name", "ph", "ts", "pid", "tid")


# ----------------------------------------------------------------------
# loading & validation
# ----------------------------------------------------------------------
def load_trace(path: str) -> list:
    """Events of a Chrome trace file (object or bare-array format)."""
    with open(path, "rt") as f:
        data = json.load(f)
    if isinstance(data, dict):
        events = data.get("traceEvents")
        if not isinstance(events, list):
            raise ValueError(
                f"{path}: trace object has no 'traceEvents' array")
        return events
    if isinstance(data, list):
        return data
    raise ValueError(f"{path}: neither a trace object nor an event array")


def load_sidecar(path: str) -> list:
    """Events of a JSONL trace sidecar.

    The sidecar shares the journal's crash contract: a process killed
    mid-write leaves at most one torn *final* line, which is dropped
    silently.  A malformed line with complete lines after it is
    corruption, not a crash, and raises ``ValueError``.
    """
    events = []
    with open(path, "rt") as f:
        lines = f.read().splitlines()
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            if lineno == len(lines):
                break  # torn final line: the crash contract
            raise ValueError(
                f"{path}:{lineno}: corrupt sidecar line "
                f"({exc})") from None
        if not isinstance(event, dict):
            raise ValueError(
                f"{path}:{lineno}: sidecar line is not an object")
        events.append(event)
    return events


def load_any_trace(path: str) -> list:
    """Load ``.jsonl`` sidecars and ``.json`` Chrome traces alike."""
    if path.endswith(".jsonl"):
        return load_sidecar(path)
    return load_trace(path)


def merge_traces(paths, out_path: str) -> int:
    """Merge per-process trace files into one Chrome trace.

    The spans already share the system-wide monotonic clock and carry
    their recording pid, so merging is concatenation plus a stable
    sort; correlation ids (``span_id``/``parent_id``) recorded by
    each process keep pointing at each other in the merged timeline.
    Returns the number of events written.
    """
    events: list = []
    for path in paths:
        events.extend(load_any_trace(path))
    events.sort(key=lambda e: (e.get("pid", 0), e.get("ts", 0.0)))
    with open(out_path, "wt") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "otherData": {"producer": "repro.obs"}}, f)
        f.write("\n")
    return len(events)


def validate_trace(events: list) -> list:
    """Schema problems of a trace-event list; empty means valid."""
    problems = []
    by_thread = defaultdict(list)
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"event #{i}: not an object")
            continue
        missing = [k for k in _REQUIRED if k not in ev]
        if missing:
            problems.append(f"event #{i}: missing keys {missing}")
            continue
        if not isinstance(ev["name"], str) or not ev["name"]:
            problems.append(f"event #{i}: name must be a non-empty string")
        ts = ev["ts"]
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"event #{i}: ts must be a number >= 0, "
                            f"got {ts!r}")
            continue
        ph = ev["ph"]
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(
                    f"event #{i}: X event needs dur >= 0, got {dur!r}")
                continue
        elif ph not in ("B", "E", "i", "I", "M", "C"):
            problems.append(f"event #{i}: unknown phase {ph!r}")
            continue
        by_thread[(ev["pid"], ev["tid"])].append((ts, i, ev))

    for (pid, tid), rows in by_thread.items():
        rows.sort(key=lambda r: r[0])
        open_be = []          # B/E stack: (name, ts)
        open_ends = []        # X nesting stack: end timestamps
        for ts, i, ev in rows:
            ph = ev["ph"]
            if ph == "B":
                open_be.append((ev["name"], ts))
            elif ph == "E":
                if not open_be:
                    problems.append(
                        f"event #{i} (pid {pid} tid {tid}): E without "
                        "a matching B")
                else:
                    name, t0 = open_be.pop()
                    if ts < t0:
                        problems.append(
                            f"event #{i}: E at {ts} precedes its B at "
                            f"{t0}")
            elif ph == "X":
                end = ts + ev["dur"]
                while open_ends and open_ends[-1] <= ts + _EPS_US:
                    open_ends.pop()
                if open_ends and end > open_ends[-1] + _EPS_US:
                    problems.append(
                        f"event #{i} ({ev['name']!r}, pid {pid} tid "
                        f"{tid}): span [{ts}, {end}] partially overlaps "
                        "an enclosing span — ts/dur are not "
                        "monotonically consistent")
                open_ends.append(end)
        for name, t0 in open_be:
            problems.append(
                f"pid {pid} tid {tid}: B event {name!r} at {t0} never "
                "closed (missing E)")
    return problems


def validate_links(events: list) -> list:
    """Correlation-id problems of a trace; empty means valid.

    Checks only events whose ``args`` carry ids (plain traces have
    none and pass vacuously): every local ``parent_id`` must resolve
    to a span in this event list, and a complete child span must lie
    within its complete parent's ``[ts, ts+dur]`` interval (allowing
    ``_EPS_US`` for rounding).  ``remote_parent`` links — a server
    span pointing at a client process's span — are exempt: they only
    resolve in a *merged* trace.
    """
    problems = []
    by_id: dict = {}
    for ev in events:
        if not isinstance(ev, dict):
            continue
        sid = (ev.get("args") or {}).get("span_id")
        if sid is not None:
            by_id[sid] = ev
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            continue
        args = ev.get("args") or {}
        parent_id = args.get("parent_id")
        if parent_id is None:
            continue
        parent = by_id.get(parent_id)
        if parent is None:
            problems.append(
                f"event #{i} ({ev.get('name')!r}): parent_id "
                f"{parent_id!r} names no span in this trace (orphaned "
                "link — torn merge or corrupted sidecar)")
            continue
        if ev.get("ph") == "X" and parent.get("ph") == "X":
            ts, dur = ev.get("ts"), ev.get("dur")
            pts, pdur = parent.get("ts"), parent.get("dur")
            if not all(isinstance(v, (int, float))
                       for v in (ts, dur, pts, pdur)):
                continue  # schema problems are validate_trace's job
            if ts < pts - _EPS_US or ts + dur > pts + pdur + _EPS_US:
                problems.append(
                    f"event #{i} ({ev.get('name')!r}): span "
                    f"[{ts}, {ts + dur}] exceeds its parent "
                    f"{parent.get('name')!r} [{pts}, {pts + pdur}] — "
                    "clock skew or corrupted durations")
    return problems


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def _complete(events: list) -> list:
    return [ev for ev in events
            if isinstance(ev, dict) and ev.get("ph") == "X"
            and isinstance(ev.get("dur"), (int, float))]


def stage_breakdown(events: list) -> dict:
    """``{span name: {count, total_s, mean_ms, max_ms}}``."""
    agg: dict = {}
    for ev in _complete(events):
        row = agg.setdefault(ev["name"],
                             {"count": 0, "total_us": 0.0, "max_us": 0.0})
        row["count"] += 1
        row["total_us"] += ev["dur"]
        row["max_us"] = max(row["max_us"], ev["dur"])
    return {
        name: {"count": r["count"],
               "total_s": r["total_us"] / 1e6,
               "mean_ms": r["total_us"] / r["count"] / 1e3,
               "max_ms": r["max_us"] / 1e3}
        for name, r in agg.items()}


def attr_breakdown(events: list, span_name: str, attr: str) -> dict:
    """Per-``args[attr]`` breakdown of one span family (e.g. the
    ``reorder`` spans keyed by ``algo``)."""
    picked = [ev for ev in _complete(events)
              if ev["name"] == span_name
              and attr in (ev.get("args") or {})]
    agg: dict = {}
    for ev in picked:
        key = str(ev["args"][attr])
        row = agg.setdefault(key, {"count": 0, "total_us": 0.0,
                                   "max_us": 0.0})
        row["count"] += 1
        row["total_us"] += ev["dur"]
        row["max_us"] = max(row["max_us"], ev["dur"])
    return {
        key: {"count": r["count"],
              "total_s": r["total_us"] / 1e6,
              "mean_ms": r["total_us"] / r["count"] / 1e3,
              "max_ms": r["max_us"] / 1e3}
        for key, r in agg.items()}


def top_spans(events: list, k: int = 10) -> list:
    """The k slowest complete spans, slowest first."""
    spans = sorted(_complete(events), key=lambda ev: -ev["dur"])
    return spans[:k]


def _span_label(ev: dict) -> str:
    args = ev.get("args") or {}
    parts = [f"{key}={args[key]}" for key in
             ("matrix", "algo", "ordering", "kernel", "arch")
             if key in args]
    return f"{ev['name']}" + (f" [{', '.join(parts)}]" if parts else "")


# ----------------------------------------------------------------------
# rendering & checking
# ----------------------------------------------------------------------
def _load_journal_summary(path: str) -> dict:
    from ..harness.engine import SweepJournal  # lazy: obs stays light

    signature, records, failures = SweepJournal.load(path)
    if signature is None:
        # the engine treats an empty/torn-only journal as a clean fresh
        # start, but as a *run artifact* it is a problem worth flagging
        raise ValueError(f"{path}: journal has no readable header line")
    return {"signature": signature, "records": len(records),
            "failures": len(failures)}


def render_report(trace_path: str | None = None,
                  journal_path: str | None = None,
                  manifest_path: str | None = None,
                  top: int = 10) -> str:
    """The human-readable ``repro report`` text."""
    from ..util import format_table

    lines = ["observability report"]
    events: list = []

    if manifest_path and os.path.exists(manifest_path):
        with open(manifest_path, "rt") as f:
            man = json.load(f)
        sha = (man.get("git_sha") or "?")[:12]
        dirty = " (dirty)" if man.get("git_dirty") else ""
        lines.append(
            f"  manifest   run {man.get('run_id', '?')}, git {sha}"
            f"{dirty}, seed {man.get('seed')}, "
            f"created {man.get('created', '?')}")
    if journal_path and os.path.exists(journal_path):
        j = _load_journal_summary(journal_path)
        lines.append(
            f"  journal    {journal_path}: {j['records']} records, "
            f"{j['failures']} failure rows")
    if trace_path and os.path.exists(trace_path):
        events = load_trace(trace_path)
        pids = {ev.get("pid") for ev in events if isinstance(ev, dict)}
        lines.append(
            f"  trace      {trace_path}: {len(events)} events from "
            f"{len(pids)} process(es)")
    if len(lines) == 1:
        return "observability report: no artifacts found"

    if events:
        stages = stage_breakdown(events)
        if stages:
            rows = [[name, r["count"], f"{r['total_s']:.3f}",
                     f"{r['mean_ms']:.2f}", f"{r['max_ms']:.2f}"]
                    for name, r in sorted(stages.items(),
                                          key=lambda kv: -kv[1]["total_s"])]
            lines += ["", "per-stage breakdown",
                      format_table(["stage", "spans", "total s",
                                    "mean ms", "max ms"], rows)]
        groups = attr_breakdown(events, "reorder", "algo")
        if groups:
            rows = [[key, r["count"], f"{r['total_s']:.3f}",
                     f"{r['mean_ms']:.2f}", f"{r['max_ms']:.2f}"]
                    for key, r in sorted(groups.items(),
                                         key=lambda kv: -kv[1]["total_s"])]
            lines += ["", "reordering time by algorithm",
                      format_table(["algo", "spans", "total s",
                                    "mean ms", "max ms"], rows)]
        slowest = top_spans(events, top)
        if slowest:
            rows = [[i + 1, _span_label(ev), f"{ev['dur'] / 1e3:.2f}",
                     ev.get("pid", "?")]
                    for i, ev in enumerate(slowest)]
            lines += ["", f"top {len(slowest)} slowest spans",
                      format_table(["#", "span", "ms", "pid"], rows)]
    return "\n".join(lines)


def check_artifacts(trace_path: str | None = None,
                    journal_path: str | None = None,
                    manifest_path: str | None = None,
                    require_spans=(),
                    sidecar_path: str | None = None) -> list:
    """Validate artifacts for CI (``repro report --check``).

    Returns the list of problems (empty = pass).  ``require_spans``
    optionally names span families that must appear in the trace (the
    smoke job requires ``reorder``, ``reuse_stats``, ``model_eval``).
    ``sidecar_path`` additionally validates the JSONL sidecar written
    alongside the trace — schema *and* correlation links, so negative
    durations, orphaned parent ids and child-exceeds-parent clock
    skew in the crash log are caught even when the final trace looks
    clean.
    """
    from .manifest import RunManifest

    problems = []
    events: list = []
    if trace_path:
        if not os.path.exists(trace_path):
            problems.append(f"trace: {trace_path} does not exist")
        else:
            try:
                events = load_trace(trace_path)
            except (ValueError, json.JSONDecodeError) as exc:
                problems.append(f"trace: {exc}")
            else:
                if not events:
                    problems.append("trace: no events recorded")
                problems += [f"trace: {p}" for p in validate_trace(events)]
                problems += [f"trace: {p}" for p in validate_links(events)]
                names = {ev.get("name") for ev in events
                         if isinstance(ev, dict)}
                for want in require_spans:
                    if want not in names:
                        problems.append(
                            f"trace: required span {want!r} absent")
    if sidecar_path:
        if not os.path.exists(sidecar_path):
            problems.append(f"sidecar: {sidecar_path} does not exist")
        else:
            try:
                side_events = load_sidecar(sidecar_path)
            except ValueError as exc:
                problems.append(f"sidecar: {exc}")
            else:
                problems += [f"sidecar: {p}"
                             for p in validate_trace(side_events)]
                problems += [f"sidecar: {p}"
                             for p in validate_links(side_events)]
    if journal_path:
        if not os.path.exists(journal_path):
            problems.append(f"journal: {journal_path} does not exist")
        else:
            try:
                _load_journal_summary(journal_path)
            except Exception as exc:  # noqa: BLE001 - report, don't die
                problems.append(f"journal: {exc}")
    if manifest_path:
        if not os.path.exists(manifest_path):
            problems.append(f"manifest: {manifest_path} does not exist")
        else:
            try:
                with open(manifest_path, "rt") as f:
                    data = json.load(f)
            except (OSError, json.JSONDecodeError) as exc:
                problems.append(f"manifest: {exc}")
            else:
                problems += RunManifest.validate(data)
                problems += _check_snapshot_provenance(data)
    return problems


def _check_snapshot_provenance(manifest_data: dict) -> list:
    """Cross-check a manifest's snapshot record against the snapshot
    directory it points at.

    A sweep run against a corpus snapshot records the snapshot's path
    and content address in the manifest config.  If the directory has
    since been rebuilt with different parameters (or edited), its
    recomputed address no longer matches — aggregating that journal
    would silently mix results from two different corpora, so the
    mismatch is a check failure, not a warning.
    """
    config = manifest_data.get("config")
    snap = config.get("snapshot") if isinstance(config, dict) else None
    if not isinstance(snap, dict):
        return []
    path = snap.get("path")
    recorded = snap.get("signature")
    if not path or not recorded:
        return [f"manifest: snapshot record incomplete: {snap}"]
    from ..errors import StorageError
    from ..storage import corpus_signature

    try:
        actual = corpus_signature(path)
    except StorageError as exc:
        return [f"manifest: snapshot {path} unreadable: {exc}"]
    if actual != recorded:
        return [f"manifest: snapshot {path} has content address "
                f"{actual} but the journal's run recorded {recorded} "
                "— the corpus changed since this sweep ran"]
    return []
