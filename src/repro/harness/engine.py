"""Parallel, resumable sweep engine with fault tolerance.

The paper's core artifact is a (matrix × ordering × architecture ×
kernel) grid; :class:`SweepEngine` executes that grid

* **in parallel** — tasks fan out over a
  :class:`~concurrent.futures.ProcessPoolExecutor`, chunked by matrix
  so every ordering of one matrix is computed in the same worker and
  the per-worker :class:`OrderingCache` pays the reordering cost once
  across all architectures; a dead worker breaks only its round, not
  the sweep (the pool is rebuilt and unfinished tasks resubmitted).
  A task carries its corpus entry and nothing else: an in-RAM matrix
  rides in the pickled task, a snapshot-backed one is memmapped by
  the worker;
* **resumably** — every completed cell is journaled to an append-only
  JSONL checkpoint, so an interrupted sweep restarted with
  ``resume=True`` skips finished cells (a torn final line is simply
  recomputed);
* **fault-tolerantly** — each cell runs under a wall-clock budget with
  bounded retries; an ordering that raises or times out produces a
  structured :class:`FailedCell` and the sweep keeps going.

Observability is threaded through the run via :mod:`repro.obs`:
every stage runs under a **span** (``reorder`` and ``reuse_stats`` per
ordering, ``model_eval`` per grid pass, nested inside one
``sweep.task`` span per matrix), workers ship their buffered trace
events and a **metrics-registry delta** back with each task outcome,
and the engine merges both — spans into the global tracer (one
Perfetto lane per worker pid), deltas into a run-local
:class:`~repro.obs.metrics.MetricsRegistry`.  Because each worker
reports only the work it did, and only when a task *finishes*, a
worker that dies mid-chunk loses its own partial counts but can never
corrupt or double-count the engine's: its cells are recomputed and
counted exactly once by whoever completes them.  The aggregate —
per-stage wall-clock timings, cache hit rates, model-statistics reuse
counters, worker utilization, cell counts and the full registry
snapshot — serialises to ``sweep_metrics.json``
(:class:`SweepMetrics` is a thin view over the registry), and a
:class:`~repro.obs.manifest.RunManifest` is written next to it.

Worker death is survived, not just journaled around: the process pool
is a :class:`concurrent.futures.ProcessPoolExecutor`, and when it
breaks (a worker was OOM-killed or segfaulted) the engine rebuilds it
and resubmits the unfinished tasks — shrunk by every cell consumed so
far — within a bounded crash budget; cells that keep killing workers
become structured :class:`FailedCell` rows with ``stage="worker"``.

Within one matrix the task reorders first and scores afterwards: each
(ordering, nparts) permutation is computed once, with its memoised
:class:`~repro.machine.reuse.ReuseStats`, and one
:func:`~repro.machine.model.predict_cells` pass then scores every
pending ordering × architecture × kernel cell of the matrix (see
docs/perfmodel.md).
"""

from __future__ import annotations

import json
import math
import os
import signal
import threading
import time
from concurrent.futures import as_completed
from concurrent.futures.process import (BrokenProcessPool,
                                        ProcessPoolExecutor)
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace

from ..errors import HarnessError
from ..machine.bench import (MeasurementRecord, measurement_record,
                             simulate_measurement)
from ..machine.model import PerfModel, predict_cells
from ..machine.reuse import ReuseStats
from ..obs import cachestats
from ..obs import manifest as _manifest
from ..obs.metrics import REGISTRY, MetricsRegistry
from ..obs.trace import (TRACER, clear_trace_context, new_span_id,
                         set_trace_context, span)
from ..reorder.registry import check_ordering_names
from ..spmv.registry import resolve_workload
from ..spmv.schedule import get_schedule

JOURNAL_VERSION = 1
#: summed entries of the cells one grid pass may hold; the pending
#: batch of a matrix task is scored early rather than grow past it
GRID_PASS_ENTRIES = 1 << 22

class CellTimeout(HarnessError):
    """A sweep cell exceeded its wall-clock budget."""


@dataclass(frozen=True)
class FailedCell:
    """A structured record of one cell the sweep could not complete.

    ``stage`` names where the failure happened (``"reorder"``,
    ``"model-eval"``, or ``"worker"`` when the worker process hosting
    the cell kept dying); ``error`` is the exception class name,
    ``message`` its text.  ``attempts`` counts tries including retries.
    """

    matrix: str
    ordering: str
    kernel: str
    architecture: str
    stage: str
    error: str
    message: str
    attempts: int = 1
    seconds: float = 0.0

    @property
    def cell(self) -> tuple:
        return (self.matrix, self.ordering, self.kernel,
                self.architecture)


@contextmanager
def _deadline(seconds):
    """Raise :class:`CellTimeout` if the block runs past ``seconds``.

    Uses ``SIGALRM``, so it is a no-op off the main thread or on
    platforms without it — worker processes always qualify.
    """
    usable = (seconds is not None and seconds > 0
              and hasattr(signal, "SIGALRM")
              and threading.current_thread() is threading.main_thread())
    if not usable:
        yield
        return

    def _alarm(signum, frame):
        raise CellTimeout(f"cell exceeded its {seconds:g}s budget")

    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


# ----------------------------------------------------------------------
# JSONL checkpoint journal
# ----------------------------------------------------------------------
#: JSON types each MeasurementRecord field annotation admits
_JSON_TYPES = {"str": (str,), "int": (int,), "float": (int, float)}


def _journaled_record(entry: dict) -> MeasurementRecord | None:
    """The record a ``record`` entry carries, or ``None`` if a field
    has the wrong type, a number is not finite, or ``cell`` is not the
    record's own ``(matrix, ordering, kernel, architecture)``."""
    rec = MeasurementRecord(**entry["data"])
    for f in fields(rec):
        value = getattr(rec, f.name)
        if isinstance(value, bool) \
                or not isinstance(value, _JSON_TYPES[f.type]) \
                or (isinstance(value, float) and not math.isfinite(value)):
            return None
    if entry["cell"] != [rec.matrix, rec.ordering, rec.kernel,
                         rec.architecture]:
        return None
    return rec


class SweepJournal:
    """Append-only JSONL checkpoint of completed sweep cells.

    Line 1 is a header carrying the sweep *signature* (corpus,
    architectures, orderings, kernels, seed); every later line is one
    ``record`` or ``failed`` entry keyed by its cell.  The format is
    torn-write tolerant: a line that does not parse (the tail of a
    killed process) is ignored and its cell recomputed on resume.
    """

    def __init__(self, path: str, signature: dict) -> None:
        self.path = path
        self.signature = signature
        self._fh = None

    # -- reading -------------------------------------------------------
    @staticmethod
    def load(path: str) -> tuple:
        """Parse a journal into ``(signature, records, failures)``.

        ``records`` maps cell tuples to :class:`MeasurementRecord`;
        ``failures`` is the list of journaled :class:`FailedCell` rows
        (informational — failed cells stay pending on resume).
        Undecodable (torn, non-UTF-8) or incomplete lines are skipped,
        and so is a record whose fields have the wrong types, are not
        finite, or disagree with its cell: its cell is recomputed.

        A journal with no readable entries at all — zero bytes, or only
        the torn tail of a process killed mid-header — parses as
        ``(None, {}, [])``: an interrupted sweep that never journaled
        anything has simply completed no cells, and resuming from it
        must start fresh rather than error.  Readable *entries* under a
        missing header are different: that journal carries data whose
        signature cannot be verified, so it raises.
        """
        signature = None
        records: dict = {}
        failures: list = []
        with open(path, "rb") as f:
            for line in f:
                try:
                    entry = json.loads(line)
                except ValueError:  # also UnicodeDecodeError
                    continue  # torn write from a killed process
                if not isinstance(entry, dict):
                    continue
                kind = entry.get("type")
                try:
                    if kind == "header":
                        signature = entry["signature"]
                    elif kind == "record":
                        rec = _journaled_record(entry)
                        if rec is not None:
                            records[tuple(entry["cell"])] = rec
                    elif kind == "failed":
                        failures.append(FailedCell(**entry["data"]))
                except (KeyError, TypeError):
                    continue  # partially-written or foreign entry
        if signature is None and (records or failures):
            raise HarnessError(
                f"{path}: journal has entries but no readable header "
                "line; cannot verify it belongs to this sweep")
        return signature, records, failures

    # -- writing -------------------------------------------------------
    @staticmethod
    def _trim_torn_tail(path: str) -> int:
        """Drop a torn final line (no trailing newline) left by a
        killed process, so appended entries start on a fresh line.
        Returns the resulting file size."""
        with open(path, "rb+") as f:
            data = f.read()
            if not data or data.endswith(b"\n"):
                return len(data)
            keep = data.rfind(b"\n") + 1
            f.truncate(keep)
            return keep

    def open(self, append: bool) -> None:
        append = append and os.path.exists(self.path)
        if append and self._trim_torn_tail(self.path) == 0:
            append = False  # nothing valid survived: start fresh
        self._fh = open(self.path, "at" if append else "wt")
        if not append:
            self._write({"type": "header", "version": JOURNAL_VERSION,
                         "signature": self.signature})

    def _write(self, entry: dict) -> None:
        self._fh.write(json.dumps(entry) + "\n")
        self._fh.flush()

    def append_record(self, cell: tuple, rec: MeasurementRecord) -> None:
        self._write({"type": "record", "cell": list(cell),
                     "data": asdict(rec)})

    def append_failure(self, failure: FailedCell) -> None:
        self._write({"type": "failed", "cell": list(failure.cell),
                     "data": asdict(failure)})

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
@dataclass
class SweepMetrics:
    """Machine-readable observability artifact of one engine run.

    Since the obs layer landed this is a thin *view*: ``registry`` is
    populated from the engine's run-local
    :class:`~repro.obs.metrics.MetricsRegistry` (the merge of every
    worker's shipped delta), not from hand-maintained dicts.
    """

    jobs: int = 1
    wall_seconds: float = 0.0
    run_id: str | None = None
    stages: dict = field(default_factory=lambda: {
        "generate": 0.0, "storage": 0.0, "reorder": 0.0,
        "reuse_stats": 0.0, "model_eval": 0.0})
    cache: dict = field(default_factory=dict)
    cells: dict = field(default_factory=lambda: {
        "total": 0, "completed": 0, "resumed": 0, "failed": 0,
        "retried": 0})
    workers: dict = field(default_factory=lambda: {
        "busy_seconds": {}, "utilization": 0.0, "crash_rounds": 0,
        "shards": 1})
    registry: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def save(self, path) -> None:
        with open(path, "wt") as f:
            json.dump(self.to_dict(), f, indent=2, sort_keys=True)
            f.write("\n")


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
@dataclass
class _TaskSpec:
    """One unit of pool work: every pending cell of one matrix.

    The entry is all a task carries.  An in-RAM
    :class:`~repro.generators.suite.CorpusEntry` ships its matrix inside
    the task the pool pickles anyway (``CSRMatrix`` pickles only its
    defining arrays); a snapshot-backed
    :class:`~repro.storage.snapshot.StoredEntry` pickles as metadata and
    the worker memmaps its arrays read-only on first ``entry.matrix``.
    """

    entry: object                # CorpusEntry | StoredEntry
    pending: frozenset           # cells still to compute


@dataclass
class _TaskOutcome:
    records: list                # [(cell, MeasurementRecord), ...]
    failures: list               # [FailedCell, ...]
    timings: dict                # stage -> seconds
    cache_stats: dict
    registry_delta: dict         # MetricsRegistry.delta_since payload
    trace_events: list           # buffered spans (empty when disabled)
    retried: int
    pid: int
    busy_seconds: float


@dataclass
class _EngineConfig:
    """Everything a worker needs; must be picklable for jobs > 1."""

    architectures: list
    orderings: list              # without "original"
    kernels: tuple
    seed: object
    timeout: float | None
    retries: int
    cache_path: str | None
    model_factory: object | None
    trace: bool = False
    #: (trace_id, root span_id) of the engine's ``sweep.run`` span;
    #: workers install it so their spans carry correlation ids and
    #: parent to the engine's root across process boundaries
    trace_ctx: tuple | None = None


_WORKER_CONFIG: _EngineConfig | None = None


def _pool_init(config: _EngineConfig) -> None:
    global _WORKER_CONFIG
    _WORKER_CONFIG = config
    # fork-started workers inherit the engine's buffered events; drop
    # them so the first drain ships only spans this worker recorded
    # itself.
    TRACER.clear()
    if config.trace and not TRACER.enabled:
        TRACER.enable()
    if config.trace_ctx is not None:
        # every top-level span this worker opens parents to the
        # engine's sweep.run root (the thread-local stack is empty
        # here, so the context's parent_id is used)
        set_trace_context(*config.trace_ctx)


def _pool_run(task: _TaskSpec) -> _TaskOutcome:
    return _run_matrix_task(task, _WORKER_CONFIG)


def _resolve_task_matrix(task: _TaskSpec, timings: dict):
    """Materialise the task's matrix, timed into the ``storage`` stage.

    Free for in-RAM entries; a snapshot-backed entry memmaps its arrays
    through the per-process attach memo (zero-copy, read-only).
    """
    t0 = time.perf_counter()
    with span("storage", matrix=task.entry.name):
        a = task.entry.matrix
    timings["storage"] += time.perf_counter() - t0
    return a


def _run_matrix_task(task: _TaskSpec, config: _EngineConfig,
                     cache=None) -> _TaskOutcome:
    """Compute every pending cell of one matrix.

    The task reorders first and scores afterwards.  Each (ordering,
    nparts) permutation is computed once (with a disk-backed cache it
    also persists across runs) and its shared reuse statistics are
    built right away; its pending (architecture, kernel) cells then
    wait in a batch, and one :func:`~repro.machine.model.predict_cells`
    pass scores the whole batch — every ordering, architecture and
    kernel of the matrix.  The batch is flushed early when its cells'
    summed entries would pass :data:`GRID_PASS_ENTRIES`, which bounds
    the pass's concatenated streams and releases the flushed permuted
    matrices.  Only GP splits into per-``gp_parts`` architecture groups
    (its permutation depends on the part count); every other ordering
    forms a single group.  Tasks are disjoint by matrix, so concurrent
    workers never write the same cache entry.
    """
    from .runner import OrderingCache  # local import: avoids a cycle

    start = time.perf_counter()
    if cache is None:
        cache = OrderingCache(path=config.cache_path)
    stats_before = dict(cache.stats)
    registry_before = REGISTRY.snapshot()
    factory = config.model_factory or PerfModel
    entry = task.entry
    records: list = []
    failures: list = []
    timings = {"storage": 0.0, "reorder": 0.0, "reuse_stats": 0.0,
               "model_eval": 0.0}
    a = _resolve_task_matrix(task, timings)
    retried = 0
    models = [(arch, factory(arch)) for arch in config.architectures]
    #: cells waiting for the grid pass: (matrix, ordering, arch, model,
    #: kernel), with their summed entries
    batch: list = []
    batch_entries = 0

    def model_failure(ordering_name, kernel, arch, exc, t0) -> FailedCell:
        return FailedCell(
            matrix=entry.name, ordering=ordering_name, kernel=kernel,
            architecture=arch.name, stage="model-eval",
            error=type(exc).__name__, message=str(exc), attempts=1,
            seconds=time.perf_counter() - t0)

    def eval_cell(matrix, ordering_name, arch, model, kernel):
        """Score one cell on its own: a record or a FailedCell."""
        t0 = time.perf_counter()
        try:
            with _deadline(config.timeout), \
                    span("model_eval", matrix=entry.name,
                         ordering=ordering_name, kernel=kernel,
                         arch=arch.name):
                return simulate_measurement(
                    matrix, arch, kernel, entry.name, ordering_name,
                    model=model)
        except Exception as exc:  # noqa: BLE001 - fault isolation
            return model_failure(ordering_name, kernel, arch, exc, t0)

    def score(cells: list, out: dict) -> None:
        """The grid pass over the batch's fast-path cells: each cell's
        schedule and record stay its own (a bad cell fails alone), the
        predictions are one pass.  A ``fastpath=False`` model's cells
        are left to the per-cell path."""
        ready = []
        for i, (matrix, ordering_name, arch, model, kernel) in \
                enumerate(cells):
            if not model.fastpath:
                continue
            t0 = time.perf_counter()
            try:
                _, kind = resolve_workload(kernel)
                ready.append((i, get_schedule(matrix, kind, arch.threads)))
            except CellTimeout:
                raise  # the pass's budget, not this cell's
            except Exception as exc:  # noqa: BLE001 - fault isolation
                out[i] = model_failure(ordering_name, kernel, arch, exc, t0)
        preds = predict_cells([(cells[i][0], cells[i][3], schedule)
                               for i, schedule in ready])
        for (i, schedule), pred in zip(ready, preds):
            matrix, ordering_name, arch, model, kernel = cells[i]
            t0 = time.perf_counter()
            try:
                out[i] = measurement_record(matrix, arch, kernel, schedule,
                                            pred, entry.name, ordering_name)
            except CellTimeout:
                raise
            except Exception as exc:  # noqa: BLE001 - fault isolation
                out[i] = model_failure(ordering_name, kernel, arch, exc, t0)

    def flush() -> None:
        """Score the batch in one pass; if the pass raises or runs past
        ``timeout × cells``, score its unscored cells one by one."""
        nonlocal batch_entries
        if not batch:
            return
        cells = batch[:]
        batch.clear()
        batch_entries = 0
        t0 = time.perf_counter()
        out: dict = {}
        fast = sum(model.fastpath for _, _, _, model, _ in cells)
        if fast:
            budget = config.timeout * fast if config.timeout else None
            try:
                with _deadline(budget), span("model_eval",
                                             matrix=entry.name,
                                             cells=fast):
                    score(cells, out)
            except Exception:  # noqa: BLE001 - the per-cell path decides
                pass
        for i, cell in enumerate(cells):
            result = out[i] if i in out else eval_cell(*cell)
            if isinstance(result, FailedCell):
                failures.append(result)
            else:
                records.append(((entry.name, cell[1], cell[4],
                                 cell[2].name), result))
        timings["model_eval"] += time.perf_counter() - t0

    def enqueue(matrix, ordering_name, group) -> None:
        """Queue every pending (arch, kernel) cell of one reordered
        matrix, after building its shared reuse statistics."""
        nonlocal batch_entries
        wanted = [(arch, model, kernel) for arch, model in group
                  for kernel in config.kernels
                  if (entry.name, ordering_name, kernel,
                      arch.name) in task.pending]
        if not wanted:
            return
        # materialise the shared statistics up front so their cost
        # lands in the reuse_stats stage, not in the model pass
        hot_lines = sorted({arch.line_size // 8
                            for arch, model, _ in wanted
                            if model.locality_term})
        t0 = time.perf_counter()
        with span("reuse_stats", matrix=entry.name,
                  ordering=ordering_name):
            ReuseStats.for_matrix(matrix).prepare(
                hot_lines if matrix.nnz else ())
        timings["reuse_stats"] += time.perf_counter() - t0
        for arch, model, kernel in wanted:
            if batch and batch_entries + matrix.nnz > GRID_PASS_ENTRIES:
                flush()
            batch.append((matrix, ordering_name, arch, model, kernel))
            batch_entries += matrix.nnz

    with span("sweep.task", matrix=entry.name,
              cells=len(task.pending)):
        enqueue(a, "original", models)
        for name in config.orderings:
            groups: dict = {}
            for arch, model in models:
                key = arch.gp_parts if name == "GP" else 0
                groups.setdefault(key, []).append((arch, model))
            for group in groups.values():
                group_cells = [(entry.name, name, kernel, arch.name)
                               for arch, _ in group
                               for kernel in config.kernels]
                if not any(c in task.pending for c in group_cells):
                    continue
                t0 = time.perf_counter()
                permuted = None
                error = None
                attempts = 0
                for attempt in range(config.retries + 1):
                    attempts = attempt + 1
                    try:
                        with _deadline(config.timeout), \
                                span("reorder", matrix=entry.name,
                                     algo=name, attempt=attempts):
                            permuted = cache.get(
                                a, entry.name, name,
                                nparts=group[0][0].gp_parts,
                                seed=config.seed).apply(a)
                        break
                    except Exception as exc:  # noqa: BLE001
                        error = exc
                        if attempt < config.retries:
                            retried += 1
                timings["reorder"] += time.perf_counter() - t0
                if permuted is None:
                    for cell in group_cells:
                        if cell not in task.pending:
                            continue
                        failures.append(FailedCell(
                            matrix=entry.name, ordering=name,
                            kernel=cell[2], architecture=cell[3],
                            stage="reorder", error=type(error).__name__,
                            message=str(error), attempts=attempts,
                            seconds=time.perf_counter() - t0))
                    continue
                enqueue(permuted, name, group)
        flush()

    # report *deltas* so caches/counters shared across serial tasks are
    # not double counted when the engine aggregates per-task stats —
    # and so a worker that dies before returning contributes nothing
    # rather than something partial
    stats_after = cache.stats
    delta = {k: stats_after.get(k, 0) - stats_before.get(k, 0)
             for k in ("hits", "disk_hits", "misses", "requests",
                       "evictions", "size_bytes", "mapped_bytes")}
    return _TaskOutcome(
        records=records, failures=failures, timings=timings,
        cache_stats=delta,
        registry_delta=REGISTRY.delta_since(registry_before),
        trace_events=TRACER.drain() if config.trace else [],
        retried=retried,
        pid=os.getpid(), busy_seconds=time.perf_counter() - start)


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
class SweepEngine:
    """Parallel, journaled, fault-tolerant sweep executor.

    Parameters
    ----------
    corpus, architectures, orderings, kernels, seed:
        The grid: corpus entries × architectures × ordering names (the
        ``"original"`` baseline is always measured) × kernel kinds or
        workload specs, with the orderings' seed.  An unregistered
        ordering name raises :class:`~repro.errors.ReorderingError`
        and an unknown kernel spec :class:`~repro.errors.ScheduleError`
        here, before any cell runs.
    cache:
        The :class:`~repro.harness.runner.OrderingCache` an inline run
        fills (a fresh in-memory one when ``None``); pool workers open
        their own cache on its ``path``.
    model_factory:
        Optional ``arch -> PerfModel`` hook (ablations override this).
        Must be picklable when ``jobs > 1``.
    jobs:
        Worker process count; ``1`` runs inline (no multiprocessing),
        which also preserves the caller's in-memory ``cache`` and
        allows non-picklable ``model_factory`` hooks.  With ``jobs > 1``
        each worker holds a private copy of an in-RAM task's matrix;
        snapshot-backed entries are mapped, not copied.
    journal_path:
        JSONL checkpoint file.  ``None`` disables journaling.
    resume:
        Load the journal first and skip its completed cells.  The
        journal's signature must match this sweep's configuration.
    timeout:
        Per-cell wall-clock budget in seconds (``None`` = unlimited);
        a grid pass over ``n`` cells gets ``n × timeout``.
    retries:
        Extra attempts for a failing/timed-out ordering computation
        (also bounds pool rebuilds after worker deaths).
    progress:
        Optional ``f(done, total, failed, elapsed)`` heartbeat callback,
        invoked as tasks complete.
    manifest_path:
        Where to write the :class:`~repro.obs.manifest.RunManifest`.
        ``None`` disables it.
    shard_bytes:
        Upper bound on the summed matrix bytes in flight per pool
        round.  When set, tasks are partitioned into consecutive
        byte-bounded shards, each run on a **fresh** process pool whose
        workers are torn down before the next shard starts — so peak
        RSS tracks the largest shard, not the whole corpus.  ``None``
        (default) runs everything in one shard.
    snapshot:
        The :class:`~repro.storage.snapshot.CorpusSnapshot` backing
        ``corpus``, if any.  Folds the snapshot's content address into
        the sweep signature (so ``--resume`` only reattaches the
        *identical* corpus bytes) and into the run manifest (so
        ``repro report --check`` can cross-check the snapshot
        directory against the journal's provenance).
    """

    def __init__(self, corpus, architectures, orderings,
                 kernels: tuple = ("1d", "2d"), cache=None,
                 model_factory=None, seed=0, jobs: int = 1,
                 journal_path: str | None = None, resume: bool = False,
                 timeout: float | None = None, retries: int = 0,
                 progress=None, manifest_path: str | None = None,
                 shard_bytes: int | None = None,
                 snapshot=None) -> None:
        if jobs < 1:
            raise HarnessError(f"jobs must be >= 1, got {jobs}")
        if retries < 0:
            raise HarnessError(f"retries must be >= 0, got {retries}")
        if shard_bytes is not None and shard_bytes <= 0:
            raise HarnessError(
                f"shard_bytes must be positive, got {shard_bytes}")
        check_ordering_names(orderings)
        for kernel in kernels:
            resolve_workload(kernel)
        self.corpus = list(corpus)
        self.architectures = list(architectures)
        self.orderings = [o for o in orderings if o != "original"]
        self.kernels = tuple(kernels)
        self.cache = cache
        self.model_factory = model_factory
        self.seed = seed
        self.jobs = jobs
        self.journal_path = journal_path
        self.resume = resume
        self.timeout = timeout
        self.retries = retries
        self.progress = progress
        self.manifest_path = manifest_path
        self.shard_bytes = shard_bytes
        self.snapshot = snapshot
        self.metrics = SweepMetrics(jobs=jobs)
        #: run-local merge target of every worker's registry delta
        self.registry = MetricsRegistry()

    # -- cell enumeration ---------------------------------------------
    def signature(self) -> dict:
        sig = {
            "corpus": [e.name for e in self.corpus],
            "architectures": [a.name for a in self.architectures],
            "orderings": list(self.orderings),
            "kernels": list(self.kernels),
            "seed": self.seed if isinstance(self.seed, int) else None,
        }
        if self.snapshot is not None:
            # content address, not path: resume must reattach the same
            # corpus *bytes*, wherever the snapshot directory lives
            sig["snapshot"] = self.snapshot.signature
        return sig

    def cells(self) -> list:
        """Canonical cell order — identical to the legacy serial
        runner's record order, so results assemble reproducibly no
        matter which worker finished first."""
        out = []
        for arch in self.architectures:
            for entry in self.corpus:
                for kernel in self.kernels:
                    out.append((entry.name, "original", kernel, arch.name))
                for name in self.orderings:
                    for kernel in self.kernels:
                        out.append((entry.name, name, kernel, arch.name))
        return out

    # -- resume --------------------------------------------------------
    def _load_checkpoint(self) -> dict:
        if not (self.journal_path and self.resume
                and os.path.exists(self.journal_path)):
            return {}
        signature, records, _old_failures = SweepJournal.load(
            self.journal_path)
        if signature is None:
            return {}  # empty/torn-only journal: no completed cells
        if signature != self.signature():
            raise HarnessError(
                f"{self.journal_path}: journal signature does not match "
                "this sweep (different corpus/architectures/orderings/"
                "kernels/seed); delete it or run without resume")
        return records

    # -- execution -----------------------------------------------------
    def run(self):
        from .runner import OrderingCache, SweepResult

        t_start = time.perf_counter()
        # spans of every stage of every cell, workers included, are
        # recorded iff the global tracer is on when the run starts
        trace_on = TRACER.enabled
        all_cells = self.cells()
        completed = self._load_checkpoint()
        # drop journal entries for cells not in this sweep's grid (the
        # signature check makes this impossible, but stay defensive)
        grid = set(all_cells)
        completed = {c: r for c, r in completed.items() if c in grid}
        self.metrics.cells["total"] = len(all_cells)
        self.metrics.cells["resumed"] = len(completed)

        manifest = None
        if self.manifest_path:
            config_doc = {"jobs": self.jobs, "timeout": self.timeout,
                          "retries": self.retries, "resume": self.resume,
                          "trace": trace_on,
                          "journal": self.journal_path,
                          "kernels": list(self.kernels),
                          "shard_bytes": self.shard_bytes}
            if self.snapshot is not None:
                config_doc["snapshot"] = {
                    "path": self.snapshot.path,
                    "signature": self.snapshot.signature}
            manifest = _manifest.collect(
                seed=self.seed, signature=self.signature(),
                config=config_doc)
            # written up front so even a crashed run has provenance
            manifest.write(self.manifest_path)
            self.metrics.run_id = manifest.run_id

        journal = None
        if self.journal_path:
            journal = SweepJournal(self.journal_path, self.signature())
            journal.open(append=self.resume)

        pending = [c for c in all_cells if c not in completed]
        by_matrix: dict = {}
        for cell in pending:
            by_matrix.setdefault(cell[0], set()).add(cell)
        tasks = [_TaskSpec(entry=e, pending=frozenset(by_matrix[e.name]))
                 for e in self.corpus if e.name in by_matrix]
        use_pool = self.jobs > 1 and len(tasks) > 1

        # With tracing live, the whole run happens inside one root
        # ``sweep.run`` span under a trace context: every local span
        # gets correlation ids, and workers (via ``trace_ctx`` in the
        # picklable config) parent their top-level spans to this root,
        # so a merged trace is one causally-linked tree, not a soup of
        # disjoint per-process lanes.
        root_span = None
        trace_ctx = None
        if trace_on:
            trace_id = self.metrics.run_id or f"sweep-{new_span_id()}"
            set_trace_context(trace_id)
            root_span = TRACER.span(
                "sweep.run", jobs=self.jobs,
                cells=len(all_cells)).__enter__()
            trace_ctx = (trace_id, root_span.span_id)

        config = _EngineConfig(
            architectures=self.architectures, orderings=self.orderings,
            kernels=self.kernels, seed=self.seed, timeout=self.timeout,
            retries=self.retries,
            cache_path=self.cache.path if self.cache is not None else None,
            model_factory=self.model_factory, trace=trace_on,
            trace_ctx=trace_ctx)

        failures: list = []
        done_cells = len(completed)
        busy: dict = {}
        if self.progress is not None:
            # first tick up front: a resumed sweep reports its journal
            # backfill before any new cell completes
            self.progress(done_cells, len(all_cells), 0, 0.0)

        def consume(outcome: _TaskOutcome) -> None:
            nonlocal done_cells
            for cell, rec in outcome.records:
                completed[cell] = rec
                if journal is not None:
                    journal.append_record(cell, rec)
            for failure in outcome.failures:
                failures.append(failure)
                if journal is not None:
                    journal.append_failure(failure)
            done_cells += len(outcome.records) + len(outcome.failures)
            for stage, secs in outcome.timings.items():
                self.metrics.stages[stage] = (
                    self.metrics.stages.get(stage, 0.0) + secs)
            self.metrics.cells["retried"] += outcome.retried
            self._merge_cache_stats(outcome.cache_stats)
            # delta-merge the worker's registry: each outcome reports
            # only its own work, so totals are exact across retries,
            # resumes and worker deaths
            self.registry.merge_delta(outcome.registry_delta)
            TRACER.merge(outcome.trace_events)
            busy[outcome.pid] = (busy.get(outcome.pid, 0.0)
                                 + outcome.busy_seconds)
            if self.progress is not None:
                self.progress(done_cells, len(all_cells), len(failures),
                              time.perf_counter() - t_start)

        try:
            if not use_pool:
                cache = self.cache or OrderingCache()
                self.cache = cache
                for task in tasks:
                    consume(_run_matrix_task(task, config, cache=cache))
            else:
                # one fresh pool per shard: tearing workers down at the
                # shard boundary returns their RSS (private matrix
                # copies and memmapped pages alike) before the next
                # batch of matrices is put in flight, so peak memory
                # tracks the largest shard, not the corpus
                shards = self._shard_tasks(tasks)
                self.metrics.workers["shards"] = len(shards)
                for shard in shards:
                    self._run_pool(shard, config, completed, failures,
                                   consume, journal)
        finally:
            if journal is not None:
                journal.close()
            if root_span is not None:
                root_span.__exit__(None, None, None)
                clear_trace_context()

        wall = time.perf_counter() - t_start
        self.metrics.wall_seconds = wall
        self.metrics.cells["completed"] = len(completed)
        self.metrics.cells["failed"] = len(failures)
        self.metrics.workers["busy_seconds"] = {
            str(pid): round(secs, 6) for pid, secs in busy.items()}
        denom = wall * max(1, min(self.jobs, max(1, len(tasks))))
        self.metrics.workers["utilization"] = (
            sum(busy.values()) / denom if denom > 0 else 0.0)
        # the metrics artifact is a view over the merged registry
        self.metrics.registry = self.registry.snapshot()

        result = SweepResult(failed=failures)
        for cell in all_cells:
            if cell in completed:
                result.add(completed[cell])
        return result

    # -- sharding ------------------------------------------------------
    @staticmethod
    def _entry_nbytes(entry) -> int:
        """On-the-wire CSR bytes of one corpus entry (rowptr int64 +
        colidx int64 + values float64), computable from metadata alone
        — no array access, so snapshot-backed entries stay unmapped."""
        return (entry.nrows + 1) * 8 + entry.nnz * 16

    def _shard_tasks(self, tasks: list) -> list:
        """Partition tasks into consecutive byte-bounded shards.

        Order is preserved (resume and journal replay see the same
        sequence); every shard gets at least one task, so a single
        matrix larger than the budget still runs — as one shard by
        itself, which is the best a matrix-granular scheduler can do.
        """
        if self.shard_bytes is None:
            return [tasks]
        shards: list = []
        current: list = []
        current_bytes = 0
        for task in tasks:
            nbytes = self._entry_nbytes(task.entry)
            if current and current_bytes + nbytes > self.shard_bytes:
                shards.append(current)
                current, current_bytes = [], 0
            current.append(task)
            current_bytes += nbytes
        if current:
            shards.append(current)
        return shards

    def _run_pool(self, tasks, config, completed, failures, consume,
                  journal) -> None:
        """Fan tasks out over a process pool, surviving worker death.

        A worker that dies (OOM kill, segfault) breaks the whole
        :class:`ProcessPoolExecutor`; the engine then rebuilds the pool
        and resubmits every unfinished task, shrunk by the cells
        already consumed.  The rebuild budget is bounded
        (``retries + len(tasks)`` rounds); when it is exhausted — or a
        lone task keeps killing its worker ``retries + 1`` times — the
        remaining cells become :class:`FailedCell` rows with
        ``stage="worker"`` instead of hanging the sweep.
        """
        pending: dict = {i: t for i, t in enumerate(tasks)}
        solo_crashes: dict = {}
        max_rounds = self.retries + len(tasks)
        rounds = 0

        def fail_pending(index: int, attempts: int) -> None:
            task = pending.pop(index)
            for cell in sorted(task.pending):
                if cell in completed:
                    continue
                failures.append(FailedCell(
                    matrix=cell[0], ordering=cell[1], kernel=cell[2],
                    architecture=cell[3], stage="worker",
                    error="WorkerDied",
                    message="worker process died while computing this "
                            "task's cells", attempts=attempts))
                if journal is not None:
                    journal.append_failure(failures[-1])

        while pending:
            broke = False
            try:
                with ProcessPoolExecutor(
                        max_workers=min(self.jobs, len(pending)),
                        initializer=_pool_init,
                        initargs=(config,)) as pool:
                    futures = {pool.submit(_pool_run, t): i
                               for i, t in pending.items()}
                    for fut in as_completed(futures):
                        index = futures[fut]
                        try:
                            outcome = fut.result()
                        except BrokenProcessPool:
                            broke = True
                            continue  # stays pending; retried next round
                        except Exception as exc:  # noqa: BLE001
                            # the task function itself is
                            # exception-free, so this is infrastructure
                            # (e.g. an outcome that failed to
                            # unpickle): fail its cells
                            failures_before = len(failures)
                            fail_pending(index, attempts=1)
                            for f in failures[failures_before:]:
                                object.__setattr__(f, "error",
                                                   type(exc).__name__)
                                object.__setattr__(f, "message",
                                                   str(exc))
                            continue
                        consume(outcome)
                        del pending[index]
            except BrokenProcessPool:
                broke = True  # pool died during submission
            if not pending:
                return
            if not broke:  # pragma: no cover - defensive
                continue
            rounds += 1
            self.metrics.workers["crash_rounds"] = rounds
            if len(pending) == 1:
                index = next(iter(pending))
                solo_crashes[index] = solo_crashes.get(index, 0) + 1
                if solo_crashes[index] > self.retries:
                    fail_pending(index, attempts=solo_crashes[index])
                    continue
            if rounds >= max_rounds:
                for index in list(pending):
                    fail_pending(index, attempts=rounds)
                return
            # shrink resubmitted tasks by everything consumed so far
            for index, task in list(pending.items()):
                still = frozenset(c for c in task.pending
                                  if c not in completed)
                if still:
                    pending[index] = replace(task, pending=still)
                else:
                    del pending[index]

    def _merge_cache_stats(self, stats: dict) -> None:
        agg = self.metrics.cache
        for key in ("hits", "disk_hits", "misses", "requests",
                    "evictions", "size_bytes", "mapped_bytes"):
            agg[key] = agg.get(key, 0) + stats.get(key, 0)
        # the zero-request guard lives in the shared helper; hit_rate
        # covers both storage levels, like OrderingCache.stats
        agg["hit_rate"] = cachestats.cache_stats(
            hits=agg.get("hits", 0) + agg.get("disk_hits", 0),
            misses=agg.get("misses", 0))["hit_rate"]
