"""The benchmark's workloads: what a user of the system waits for.

Every workload follows one protocol:

* ``setup()`` builds the inputs from the seed and brings the program to
  the state a user starts from; the runner calls it several times,
  calling ``close()`` before each, and reports the median;
* ``measure(seconds)`` repeats the workload's operation for about
  ``seconds`` and returns a :class:`Measurement`;
* ``problems()`` checks the program's outputs and lists what is wrong;
* ``layers()`` (traced runs only) returns per-layer figures, reading
  every figure the program reports by its exact key, so a renamed key
  fails the run instead of reading as zero;
* ``close()`` stops everything the workload started.

Spans go to the :class:`repro.obs.trace.Tracer` the runner passes in
(a private one, not the program's global tracer).

An *operation* is the unit a latency is taken over: one matrix's full
(ordering x architecture x kernel) grid in a sweep, one ``/advise``
request, one reorder-then-solve job.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from hostspeed import HostSpeed

import repro
from repro.advisor import Advisor, AdvisorModel
from repro.generators import build_corpus
from repro.harness.engine import SweepEngine
from repro.harness.runner import OrderingCache
from repro.machine.arch import TABLE2, get_architecture
from repro.machine.bench import simulate_measurement
from repro.machine.model import PerfModel
from repro.matrix.csr import CSRMatrix
from repro.obs.trace import new_span_id
from repro.reorder import compute_ordering
from repro.serve import ServeClient, generate_trace
from repro.serve.client import ServeUnavailable, post_json
from repro.serve.protocol import advice_to_wire
from repro.solvers.iterative import SOLVERS, seeded_rhs
from repro.spmv.kernels import spmv_1d, spmv_2d
from repro.spmv.registry import KERNELS, WORKLOADS as SPMV_WORKLOADS
from repro.spmv.schedule import get_schedule

#: every workload draws its matrices from this corpus tier (40 matrices
#: in 13 groups; the seed changes each matrix's random structure, never
#: the mix of families and sizes, so seeds are comparable)
TIER = "tiny"


def mean_ms(tracer, name: str) -> float:
    """Mean duration of the recorded spans called ``name``, in ms."""
    durations = [e["dur"] for e in tracer.events() if e["name"] == name]
    if not durations:
        raise KeyError(f"no {name!r} spans were recorded")
    return sum(durations) / len(durations) / 1e3


@dataclass
class Measurement:
    #: seconds per operation, keyed by the recipe of its input (a
    #: corpus matrix name, a request id); the runner reduces each key
    #: to its fastest repeat (min-of-k), so repeats that ran while a
    #: neighbour held the core move neither the median nor the tail
    latencies: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: calibration samples taken between operations (CPU-bound
    #: workloads only; an unsampled host reports latencies unscaled)
    host: HostSpeed = field(default_factory=HostSpeed)

    def add(self, key, seconds: float) -> None:
        self.latencies.setdefault(key, []).append(seconds)


def _copy_matrix(a: CSRMatrix) -> CSRMatrix:
    """A fresh matrix object: memoised per-matrix statistics (reuse
    stats, schedules) live on the object, and a fresh process would
    not have them."""
    return CSRMatrix(a.nrows, a.ncols, a.rowptr.copy(), a.colidx.copy(),
                     a.values.copy())


# ----------------------------------------------------------------------
# sweeps
# ----------------------------------------------------------------------
class SweepWarm:
    """The paper's (matrix x ordering x architecture x kernel) grid,
    run inline through :class:`SweepEngine` with a disk-backed ordering
    cache, as ``repro sweep`` runs it.

    Set-up is the *cold* sweep: every ordering computed into an empty
    on-disk cache, so the reordering layer shows in ``setup_s``.  Each
    measured pass is the *warm* re-sweep a second ``repro sweep`` run
    makes on fresh copies of the same matrices: the cache serves every
    ordering, so loading it, the reuse statistics and the performance
    model dominate.  Every pass must reproduce the cold sweep record for
    record.

    The swept corpus leaves out the tier's three heaviest matrices
    (their partitioner runs alone take half of a full sweep) and keeps
    every second one of the rest: 19 matrices from 10 of the 13 groups,
    so the cold sweep takes a few seconds.
    """

    ARCHS = ("Rome", "Skylake")   # 16 and 32 GP parts: GP runs twice
    ORDERINGS = ("RCM", "ND", "AMD", "GP", "HP", "Gray")
    KERNELS = ("1d", "2d")
    HEAVY = ("rmat_s11", "mycielskian_i8", "banded_n3000_b30")
    CORPUS_STRIDE = 2

    def __init__(self, seed: int, work_dir: str, tracer) -> None:
        self.seed = seed
        self.cache_dir = os.path.join(work_dir, "ordering_cache")
        self.tracer = tracer
        self.archs = [get_architecture(n) for n in self.ARCHS]
        self.corpus: list = []
        #: records of the cold sweep; every warm pass must equal them
        self.reference: dict = {}
        #: engine stage seconds of the cold sweep
        self.fill_stages: dict = {}
        #: (records, failed cells) of every measured pass
        self.done: list = []
        self.stages: dict = {}
        self.busy = 0.0
        self.disk_hits = 0

    def setup(self) -> None:
        self.corpus = [e for e in build_corpus(TIER, seed=self.seed)
                       if e.name not in self.HEAVY][::self.CORPUS_STRIDE]
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.reference = {}
        self._run_pass(Measurement())
        self.fill_stages = self.stages
        self.done, self.stages, self.busy, self.disk_hits = [], {}, 0.0, 0

    def _run_pass(self, m: Measurement) -> None:
        """One sweep of the corpus.  The engine's progress callback
        fires once up front and once per finished matrix; each call
        takes a calibration sample, and a matrix's latency runs from the
        end of the previous call to the start of its own."""
        engine = SweepEngine(
            [replace(e, matrix=_copy_matrix(e.matrix)) for e in self.corpus],
            self.archs, self.ORDERINGS, kernels=self.KERNELS,
            cache=OrderingCache(self.cache_dir), seed=self.seed, jobs=1)
        ends: list = []
        starts: list = []

        def tick(*_) -> None:
            ends.append(time.perf_counter())
            m.host.sample()
            starts.append(time.perf_counter())

        engine.progress = tick
        t0 = time.perf_counter()
        result = engine.run()
        self.tracer.record_span("sweep.pass", t0, time.perf_counter() - t0,
                                matrices=len(self.corpus))
        lat = [end - start for start, end in zip(starts, ends[1:])]
        for entry, seconds in zip(self.corpus, lat):
            m.add(entry.name, seconds)
        m.attempted += len(lat)
        self.busy += sum(lat)
        for stage, secs in engine.metrics.stages.items():
            self.stages[stage] = self.stages.get(stage, 0.0) + secs
        self.disk_hits += engine.metrics.cache["disk_hits"]
        records = {(r.matrix, r.ordering, r.kernel, r.architecture):
                   asdict(r) for r in result.records}
        bad = {f.matrix for f in result.failed}
        bad |= {cell[0] for cell, r in records.items()
                if not (np.isfinite(r["gflops_max"])
                        and r["gflops_max"] > 0)}
        if not self.reference:
            self.reference = records
        bad |= {cell[0] for cell in set(records) | set(self.reference)
                if records.get(cell) != self.reference.get(cell)}
        m.failed += len(bad)
        self.done.append((records, len(result.failed)))

    def measure(self, seconds: float) -> Measurement:
        m = Measurement()
        start = time.perf_counter()
        while True:
            self._run_pass(m)
            if time.perf_counter() - start >= seconds:
                return m

    def problems(self) -> list:
        """Every pass complete and equal to the cold sweep, and the cold
        sweep right on one matrix recomputed outside the engine."""
        out = []
        expected = (len(self.corpus) * (len(self.ORDERINGS) + 1)
                    * len(self.archs) * len(self.KERNELS))
        for records, failed in self.done:
            if len(records) != expected:
                out.append(f"a sweep pass produced {len(records)} "
                           f"records, expected {expected}")
            if failed:
                out.append(f"{failed} sweep cell(s) failed")
        differ = sum(records != self.reference for records, _ in self.done)
        if differ:
            out.append(f"{differ} warm pass(es) differ from the cold "
                       "sweep that filled the ordering cache")
        rng = np.random.default_rng(self.seed)
        entry = self.corpus[int(rng.integers(len(self.corpus)))]
        return out + self._spot_check(entry)

    def _spot_check(self, entry) -> list:
        """Recompute one matrix's grid: orderings straight from the
        reordering layer, scores from the scalar reference twin of the
        performance model."""
        out = []
        for ordering in ("original",) + self.ORDERINGS:
            for arch in self.archs:
                a = _copy_matrix(entry.matrix)
                pa = compute_ordering(a, ordering, nparts=arch.gp_parts,
                                      seed=self.seed).apply(a)
                for kernel in self.KERNELS:
                    want = simulate_measurement(
                        pa, arch, kernel, entry.name, ordering,
                        model=PerfModel(arch, fastpath=False))
                    got = self.reference.get((entry.name, ordering, kernel,
                                              arch.name))
                    if got is None or got["nnz_max"] != want.nnz_max \
                            or not np.isclose(got["gflops_max"],
                                              want.gflops_max, rtol=1e-9,
                                              atol=0.0):
                        out.append(f"{entry.name}/{ordering}/{kernel}/"
                                   f"{arch.name}: sweep record {got} != "
                                   f"reference {asdict(want)}")
        return out

    def layers(self) -> dict:
        per_matrix = 1e3 / len(self.corpus)
        tasks = len(self.corpus) * len(self.done)
        stage_ms = {k: v / tasks * 1e3 for k, v in self.stages.items()}
        return {
            "sweep_fill_reorder_ms": self.fill_stages["reorder"]
            * per_matrix,
            "sweep_reorder_ms": stage_ms["reorder"],
            "sweep_reuse_stats_ms": stage_ms["reuse_stats"],
            "sweep_model_eval_ms": stage_ms["model_eval"],
            # the engine's own time: matrix latency not spent in a stage
            "sweep_engine_overhead_ms": self.busy / tasks * 1e3
            - sum(stage_ms.values()),
            "sweep_cache_disk_hits": self.disk_hits / len(self.done),
        }

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# advisor serving
# ----------------------------------------------------------------------
class ServeMixed:
    """The advisor daemon under an open-loop, bursty request stream.

    The daemon runs in its own process, started as docs/serving.md
    starts it (``repro serve --tier tiny --train-limit 4 --port 0``):
    it trains its model at boot, and every daemon setting is the CLI
    default (32-request batches, 5 ms linger, a 128-deep queue, 50
    admission tokens/s per client).  The traffic has
    ``generate_trace``'s default shape (zipf popularity, four-fold
    bursts for half of every 0.5 s) at half its default base rate.  Each
    request
    draws its architecture, kernel and workload uniformly from the
    vocabularies the daemon accepts, so cached advice serves the
    popular head while the tail runs feature extraction and the learned
    model.  Latency counts from when a request was due, so a stall also
    charges the requests queued behind it.
    """

    TRAIN_LIMIT = 4
    #: base arrival rate, req/s.  At the default 200 (800 in bursts) the
    #: client and the daemon saturate a 2-vCPU host: the median latency
    #: moved by a third between seeds, and a traced daemon shed requests
    #: as queue_full while its caches were cold
    RATE = 100.0
    #: client identities the trace spreads over.  At the loadgen default
    #: of 4 the bursts outrun 4 x 50 admission tokens/s (at rate 200,
    #: 59% of requests were shed as rate_limited); over 16 clients a
    #: burst asks each bucket for 25 req/s, half its refill
    CLIENTS = 16

    def __init__(self, seed: int, work_dir: str, tracer) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.tracer = tracer
        self.model_path = os.path.join(work_dir, "advisor_model.json")
        self.trace_path = os.path.join(work_dir, "daemon_trace.json")
        self.log_path = os.path.join(work_dir, "daemon.log")
        #: the client's copy of the resident corpus, for request names
        #: and the oracle; the daemon builds its own at boot
        self.corpus = build_corpus(TIER, seed=self.seed)
        self.proc = None
        self.address = None
        self.exit_codes: list = []
        self.requests: list = []
        self.responses: dict = {}
        self.late: list = []
        self.metricsz: dict = {}

    def setup(self) -> None:
        for path in (self.model_path, self.trace_path):
            if os.path.exists(path):
                os.remove(path)
        cmd = [sys.executable, "-m", "repro", "serve", "--port", "0",
               "--tier", TIER, "--seed", str(self.seed),
               "--train-limit", str(self.TRAIN_LIMIT),
               "--model", self.model_path]
        if self.tracer.enabled:
            cmd += ["--trace", self.trace_path]
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__)))
        env = dict(os.environ, PYTHONPATH=src, TMPDIR=self.work_dir)
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                cmd, stdout=subprocess.PIPE, stderr=log, text=True,
                cwd=self.work_dir, env=env)
        found = re.search(r"listening on http://([\d.]+):(\d+)",
                          self.proc.stdout.readline())
        if not found:
            self.close()
            with open(self.log_path) as f:
                raise RuntimeError(f"the daemon did not start:\n{f.read()}")
        self.address = (found.group(1), int(found.group(2)))
        with ServeClient(*self.address) as client:
            status, _ = client.advise(self.corpus[-1].name)
            if status != 200:
                raise RuntimeError(f"daemon warm-up request got {status}")

    def _traffic(self, seconds: float) -> list:
        names = [e.name for e in self.corpus]
        # the four-fold burst rate bounds the mean, so the trace outlasts
        # the measured seconds before it is cut there
        trace = [r for r in generate_trace(
            names, n=int(seconds * 4 * self.RATE), seed=self.seed,
            rate=self.RATE, clients=self.CLIENTS) if r.t < seconds]
        rng = np.random.default_rng([self.seed, 1])
        archs, n = list(TABLE2), len(trace)
        arch = rng.integers(len(archs), size=n)
        kernel = rng.integers(len(KERNELS), size=n)
        workload = rng.integers(len(SPMV_WORKLOADS), size=n)
        return [{"id": r.id, "t": r.t, "matrix": r.matrix,
                 "client": r.client, "arch": archs[arch[i]],
                 "kernel": KERNELS[kernel[i]],
                 "workload": SPMV_WORKLOADS[workload[i]]}
                for i, r in enumerate(trace)]

    async def _fire_all(self, traffic: list, m: Measurement) -> None:
        loop = asyncio.get_running_loop()
        host, port = self.address
        start = loop.time()

        async def fire(req: dict) -> None:
            due = start + req["t"]
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            sent = loop.time()
            t0 = time.perf_counter()
            payload = {k: req[k] for k in ("id", "matrix", "client",
                                           "arch", "kernel", "workload")}
            sid = trace_id = None
            if self.tracer.enabled:
                # the daemon's spans of this request join its trace
                sid = new_span_id()
                trace_id = f"req-{sid}"
                payload["trace"] = {"trace_id": trace_id, "parent_id": sid}
            try:
                status, body = await post_json(host, port, "/advise",
                                               payload, timeout=30.0)
            except ServeUnavailable:
                status, body = 0, {}
            done = loop.time()
            self.late.append(sent - due)
            self.tracer.record_span(
                "client.request", t0, time.perf_counter() - t0,
                span_id=sid, trace_id=trace_id, matrix=req["matrix"],
                status=status)
            if status == 200 and body["status"] == "ok":
                m.add(req["id"], done - due)
                self.responses[req["id"]] = body["advice"]
            else:
                m.failed += 1

        await asyncio.gather(*(fire(r) for r in traffic))

    def measure(self, seconds: float) -> Measurement:
        self.requests = self._traffic(seconds)
        m = Measurement(attempted=len(self.requests))
        asyncio.run(self._fire_all(self.requests, m))
        with ServeClient(*self.address) as client:
            self.metricsz = client.metricsz()
        self.close()               # the daemon writes its trace on exit
        if self.tracer.enabled:
            with open(self.trace_path) as f:
                self.tracer.merge(json.load(f)["traceEvents"])
        return m

    def problems(self) -> list:
        """Every daemon exited cleanly, and the answers equal an
        unbatched advisor's on the model the daemon trained."""
        out = [f"the daemon exited with status {code}"
               for code in self.exit_codes if code != 0]
        oracle = Advisor(AdvisorModel.load(self.model_path))
        entries = {e.name: e for e in self.corpus}
        expected: dict = {}
        for req in self.requests:
            got = self.responses.get(req["id"])
            if got is None:
                out.append(f"request {req['id']} was not answered ok")
                continue
            key = (req["matrix"], req["arch"], req["kernel"],
                   req["workload"])
            if key not in expected:
                e = entries[req["matrix"]]
                expected[key] = advice_to_wire(oracle.advise(
                    e.matrix, get_architecture(req["arch"]), req["kernel"],
                    matrix_name=e.name, workload=req["workload"]))
            if got != expected[key]:
                out.append(f"request {req['id']} {key}: served {got} "
                           f"!= unbatched {expected[key]}")
        oracle.close()
        return out[:20]

    def layers(self) -> dict:
        slo, stats = self.metricsz["slo"], self.metricsz["advisor"]
        return {
            # time a request waited for its micro-batch to close
            "serve_queue_wait_ms": mean_ms(self.tracer, "serve.queued"),
            "serve_batch_size": slo["batch"]["mean_size"],
            # the daemon's time per request, from parse to answer
            "serve_request_ms": mean_ms(self.tracer, "serve.request"),
            # featurize and predict, or an advice-cache hit
            "serve_advise_ms": mean_ms(self.tracer, "advisor.request"),
            "serve_feature_hit_rate": stats["features"]["hit_rate"],
            "serve_advice_hit_rate": stats["advice"]["hit_rate"],
            "serve_send_late_ms": float(np.percentile(self.late, 90))
            * 1e3,
        }

    def close(self) -> None:
        """SIGTERM, on which the daemon answers its queue and exits;
        kill it if that hangs."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.exit_codes.append(self.proc.returncode)
        self.proc = None


# ----------------------------------------------------------------------
# solver loops
# ----------------------------------------------------------------------
def spd_system(a: CSRMatrix, margin: float) -> CSRMatrix:
    """An SPD, strictly diagonally dominant M-matrix on ``a``'s
    symmetrised pattern: off-diagonal weights ``-|a_ij|``, diagonal
    ``(1 + margin)`` times the row's off-diagonal mass plus ``margin``.
    CG and Jacobi both converge on it, and a small ``margin`` makes
    Jacobi take the hundreds of SpMVs a real solve does."""
    m = abs(a.to_scipy())
    w = ((m + m.T) * 0.5).tolil()
    w.setdiag(0.0)
    w = w.tocsr()
    w.eliminate_zeros()
    diag = (1.0 + margin) * np.asarray(w.sum(axis=1)).ravel() + margin
    s = (sp.diags(diag) - w).tocsr()
    s.sort_indices()
    return CSRMatrix(s.shape[0], s.shape[1], s.indptr.astype(np.int64),
                     s.indices.astype(np.int64), s.data.copy())


class SolveLoops:
    """Reorder-then-solve jobs, one per matrix: RCM on an SPD system,
    then a CG and a Jacobi loop to tolerance on the one reordered
    matrix.  The two loops run on opposite thread schedules (1D/2D)
    that alternate from matrix to matrix, so both solvers meet both
    schedules.  A pass over the tier takes a few seconds, so a run
    makes several and each matrix's latency is the fastest of them."""

    MARGIN = 0.05
    TOL = 1e-8
    NTHREADS = 16
    KINDS = ("1d", "2d")
    SPMV_PROBES = 5

    def __init__(self, seed: int, work_dir: str, tracer) -> None:
        self.seed = seed
        self.tracer = tracer
        self.systems: list = []
        self.bad: list = []
        self.iterations: dict = {}

    def setup(self) -> None:
        self.systems = [(e.name, spd_system(e.matrix, self.MARGIN))
                        for e in build_corpus(TIER, seed=self.seed)
                        if e.matrix.is_square]
        name, s = self.systems[0]
        self._job(0, name, _copy_matrix(s))

    def _job(self, index: int, name: str, s: CSRMatrix) -> tuple:
        """Returns the reordered matrix and ``[(solver, kind, result)]``."""
        runs = []
        with self.tracer.span("solve.job", matrix=name):
            with self.tracer.span("solve.reorder"):
                ps = compute_ordering(s, "RCM").apply(s)
            for solver, kind in (("cg", self.KINDS[index % 2]),
                                 ("jacobi", self.KINDS[1 - index % 2])):
                with self.tracer.span(f"solve.{solver}", kernel=kind):
                    runs.append((solver, kind, SOLVERS[solver](
                        ps, seed=self.seed, kind=kind,
                        nthreads=self.NTHREADS, tol=self.TOL)))
        return ps, runs

    def _spmv_probe(self, ps: CSRMatrix, kind: str) -> None:
        schedule = get_schedule(ps, kind, self.NTHREADS)
        kernel = spmv_1d if kind == "1d" else spmv_2d
        x = np.ones(ps.ncols)
        for _ in range(self.SPMV_PROBES):
            with self.tracer.span("spmv"):
                kernel(ps, x, schedule)

    def _check(self, name: str, ps: CSRMatrix, runs: list) -> bool:
        """Converged, and the true residual of every solution (computed
        by scipy, not the solver) is within ten times the tolerance."""
        b = seeded_rhs(ps, self.seed)
        ok = True
        for solver, kind, res in runs:
            r = np.linalg.norm(b - ps.to_scipy() @ res.x)
            if not (res.converged and res.iterations > 0
                    and r <= 10 * self.TOL * np.linalg.norm(b)):
                ok = False
                self.bad.append(f"{name}/{solver}/{kind}: converged="
                                f"{res.converged} after {res.iterations} "
                                f"iterations, true residual {r:.3e}")
        return ok

    def measure(self, seconds: float) -> Measurement:
        m = Measurement()
        start = time.perf_counter()
        while True:
            for i, (name, s) in enumerate(self.systems):
                a = _copy_matrix(s)
                t0 = time.perf_counter()
                ps, runs = self._job(i, name, a)
                m.add(name, time.perf_counter() - t0)
                m.attempted += 1
                for solver, kind, res in runs:
                    self.iterations.setdefault(solver, []).append(
                        res.iterations)
                    if self.tracer.enabled:
                        self._spmv_probe(ps, kind)
                if not self._check(name, ps, runs):
                    m.failed += 1
                m.host.sample()
            if time.perf_counter() - start >= seconds:
                return m

    def problems(self) -> list:
        return self.bad[:20]

    def layers(self) -> dict:
        return {
            "solve_reorder_ms": mean_ms(self.tracer, "solve.reorder"),
            "solve_cg_ms": mean_ms(self.tracer, "solve.cg"),
            "solve_jacobi_ms": mean_ms(self.tracer, "solve.jacobi"),
            "solve_cg_iterations": float(np.mean(self.iterations["cg"])),
            "solve_jacobi_iterations": float(np.mean(
                self.iterations["jacobi"])),
            "solve_spmv_us": mean_ms(self.tracer, "spmv") * 1e3,
        }

    def close(self) -> None:
        pass


WORKLOADS = {
    "sweep_warm": SweepWarm,
    "serve_mixed": ServeMixed,
    "solve_loops": SolveLoops,
}
