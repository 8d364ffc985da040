"""Mutation smoke: seeded faults the check suites must catch.

Each fault monkeypatches one production function with a realistic bug
— an off-by-one, a swapped permutation direction, a dropped journal
line, a stale cache entry, an unguarded division — runs the check
suite built to catch exactly that class of defect, and asserts at
least one finding names the expected invariant.  A fault that slips
through means the oracle layer has a blind spot; the smoke exits
nonzero and CI fails.

Faults patch *module/class attributes* (the names the checkers resolve
at call time), never local bindings, and every patch is restored in a
``finally`` so faults cannot leak into each other or into a subsequent
real check run.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np

from ..obs.trace import span
from .corpus import check_corpus, edge_corpus
from .findings import CheckReport


# ----------------------------------------------------------------------
# patch helper
# ----------------------------------------------------------------------
@contextlib.contextmanager
def _patched(owner, name: str, replacement):
    """Temporarily replace ``owner.name`` (module or class attribute)."""
    original = getattr(owner, name)
    setattr(owner, name, replacement)
    try:
        yield original
    finally:
        setattr(owner, name, original)


# ----------------------------------------------------------------------
# target suites (small fixed corpora keep the smoke fast)
# ----------------------------------------------------------------------
def _small_matrices(seed: int) -> list:
    return check_corpus(seed)[:2] + edge_corpus(seed)


def _features_target(seed: int) -> CheckReport:
    from .features import check_features

    return check_features(_small_matrices(seed))


def _kernels_target(seed: int) -> CheckReport:
    from .kernels import check_kernels

    return check_kernels(_small_matrices(seed), seed=seed)


def _permutations_target(seed: int) -> CheckReport:
    from .permutations import check_permutations

    mats = [m for m in check_corpus(seed)[:2] if m[1].is_square]
    return check_permutations(mats, orderings=("RCM", "Gray"), seed=seed)


def _model_target(seed: int) -> CheckReport:
    from .model import check_model

    return check_model(check_corpus(seed)[:2],
                       architectures=("Rome",))


def _artifacts_target(seed: int) -> CheckReport:
    from .artifacts import check_artifacts

    return check_artifacts(seed=seed)


def _serving_target(seed: int) -> CheckReport:
    from .serving import check_serving

    return check_serving(seed=seed)


def _caches_target(seed: int) -> CheckReport:
    from ..generators import build_corpus
    from .artifacts import _check_caches

    report = CheckReport(suites=["artifacts"])
    _check_caches(report, build_corpus("tiny", seed=seed)[:1])
    return report


def _fastpath_target(seed: int) -> CheckReport:
    from .fastpath import check_fastpath

    mats = [m for m in check_corpus(seed)[:3] if m[1].is_square]
    return check_fastpath(mats)


def _storage_target(seed: int) -> CheckReport:
    from .storage import check_storage

    return check_storage(seed=seed)


# ----------------------------------------------------------------------
# the faults
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fault:
    """One injectable bug and the invariant expected to catch it."""

    name: str
    description: str
    expect_invariant: str
    target: object                 # seed -> CheckReport
    inject: object                 # () -> contextmanager
    expect_detail: str = ""        # optional substring of subject+detail


def _fault_bandwidth_off_by_one():
    from .. import features

    orig = features.bandwidth
    return _patched(features, "bandwidth", lambda a: orig(a) + 1)


def _fault_swapped_perm_direction():
    from ..matrix.permute import invert_permutation
    from ..reorder import perm as perm_mod

    orig = perm_mod.apply_bijection

    def swapped(a, p, symmetric):
        return orig(a, invert_permutation(p) if symmetric else p,
                    symmetric)

    return _patched(perm_mod, "apply_bijection", swapped)


def _fault_permute_skips_column_sort():
    from ..matrix import permute as permute_mod
    from ..matrix.csr import CSRMatrix

    def unsorted(a, p, col_inv):
        # relabel the columns but keep them in gathered order: the
        # unchecked result is no longer canonical CSR
        rowptr, src = permute_mod._gather_rows(a, p)
        return CSRMatrix._trusted(a.nrows, a.ncols, rowptr,
                                  col_inv[a.colidx[src]], a.values[src])

    return _patched(permute_mod, "_permute_two_sided", unsorted)


def _fault_dropped_journal_line():
    from ..harness.engine import SweepJournal

    orig = SweepJournal.append_record
    state = {"n": 0}

    def dropping(self, cell, rec):
        state["n"] += 1
        if state["n"] == 2:
            return  # silently lose one completed cell
        orig(self, cell, rec)

    return _patched(SweepJournal, "append_record", dropping)


def _fault_stale_cache_entry():
    from ..harness.runner import OrderingCache
    from ..reorder.perm import identity_ordering

    orig = OrderingCache.get

    def stale(self, a, matrix_name, ordering, nparts=64, seed=0):
        result = orig(self, a, matrix_name, ordering, nparts=nparts,
                      seed=seed)
        # second lookup serves a wrong (identity) permutation, as a
        # colliding/stale key would
        if self._hits > 0:
            return identity_ordering(a.nrows)
        return result

    return _patched(OrderingCache, "get", stale)


def _fault_ordering_cache_skips_crc():
    import json
    import zlib

    from ..harness import runner

    orig = runner.decode_entry

    def trusting(data, nrows, ordering):
        # re-stamp the header with the body's own CRC before the check,
        # so any body that is a bijection is served
        hlen = int.from_bytes(data[:4], "little")
        try:
            header = json.loads(data[4:4 + hlen])
        except ValueError:
            return orig(data, nrows, ordering)
        body = data[4 + hlen:]
        raw = json.dumps({**header, "crc32": zlib.crc32(body)}).encode()
        return orig(len(raw).to_bytes(4, "little") + raw + body, nrows,
                    ordering)

    return _patched(runner, "decode_entry", trusting)


def _fault_imbalance_empty_threads():
    from ..spmv.schedule import Schedule

    def all_active(self):
        return np.ones(self.nthreads, dtype=bool)

    return _patched(Schedule, "active_threads", all_active)


def _fault_kernel_skips_last_thread():
    from ..spmv import kernels

    orig = kernels.spmv_1d

    def skipping(a, x, schedule):
        y = orig(a, x, schedule)
        lo = int(schedule.row_start[schedule.nthreads - 1])
        hi = int(schedule.row_start[schedule.nthreads])
        y[lo:hi] = 0.0  # last thread's rows never computed
        return y

    return _patched(kernels, "spmv_1d", skipping)


def _fault_kernel_2d_drops_boundary_partial():
    from ..spmv import kernels

    orig = kernels._boundary_partials

    def dropping(a, x, plan):
        rows, partials = orig(a, x, plan)
        return rows[:-1], partials[:-1]  # the row restarts from zero only

    return _patched(kernels, "_boundary_partials", dropping)


def _fault_kernel_2d_skips_boundary_reset():
    from ..spmv import kernels

    orig = kernels._boundary_plan

    def unreset(a, schedule):
        # the memoised plan stays intact: only this call's copy changes
        plan = orig(a, schedule)
        return plan._replace(reset=plan.reset[:0])

    return _patched(kernels, "_boundary_plan", unreset)


def _fault_model_fastpath_drift():
    from ..machine.reuse import ReuseStats

    orig = ReuseStats.prev

    def drifted(self, words_per_line):
        prev = orig(self, words_per_line).copy()
        warm = np.flatnonzero(prev >= 0)
        if warm.size:
            prev[warm[0]] = -1  # one extra modelled line load
        return prev

    return _patched(ReuseStats, "prev", drifted)


def _fault_grid_pass_cell_offset():
    from ..machine import model as model_mod

    # every cell's segment is taken to start where the first cell's
    # does, so each cell counts its threads over the first cell's
    # entries; a one-cell pass is unaffected
    return _patched(model_mod, "_stream_offsets",
                    lambda sizes: np.zeros(sizes.size, dtype=np.int64))


def _fault_prev_occurrence_off_by_one():
    from ..machine import reuse as reuse_mod

    orig = reuse_mod.prev_occurrence

    def shifted(stream):
        prev = orig(stream)
        return np.where(prev > 0, prev - 1, prev)

    return _patched(reuse_mod, "prev_occurrence", shifted)


def _fault_torn_trace_event():
    from ..obs.trace import Tracer

    orig = Tracer.save

    def torn(self, path, extra_events=None):
        bad = [{"name": "torn", "ph": "X", "cat": "repro", "ts": 0.0,
                "dur": -1.0, "pid": 0, "tid": 0}]
        return orig(self, path, extra_events=bad + list(extra_events or []))

    return _patched(Tracer, "save", torn)


def _fault_sidecar_negative_duration():
    from ..obs.trace import Tracer

    orig = Tracer._write_jsonl
    state = {"done": False}

    def negated(self, event):
        if not state["done"] and event.get("ph") == "X":
            state["done"] = True
            # corrupt the sidecar line only — the in-RAM buffer (and
            # thus the saved .json trace) stays clean, so the finding
            # must come from the sidecar validation pass
            event = dict(event)
            event["dur"] = -abs(float(event.get("dur", 0.0))) - 1.0
        orig(self, event)

    return _patched(Tracer, "_write_jsonl", negated)


def _fault_sidecar_orphaned_parent():
    from ..obs.trace import Tracer

    orig = Tracer._write_jsonl
    state = {"done": False}

    def orphaned(self, event):
        args = event.get("args") or {}
        if not state["done"] and args.get("parent_id"):
            state["done"] = True
            event = dict(event)
            event["args"] = dict(args, parent_id="ffffffff")
        orig(self, event)

    return _patched(Tracer, "_write_jsonl", orphaned)


def _fault_sidecar_child_exceeds_parent():
    from ..obs.trace import Tracer

    orig = Tracer._write_jsonl
    state = {"done": False}

    def skewed(self, event):
        args = event.get("args") or {}
        if (not state["done"] and event.get("ph") == "X"
                and args.get("parent_id")):
            state["done"] = True
            # inflate a child span well past any parent interval the
            # tiny check sweep can produce — the skewed-clock shape
            event = dict(event)
            event["dur"] = float(event.get("dur", 0.0)) * 1000.0 + 1e7
        orig(self, event)

    return _patched(Tracer, "_write_jsonl", skewed)


def _fault_manifest_missing_field():
    import json

    from ..obs.manifest import RunManifest

    def truncated(self, path):
        data = self.to_dict()
        data.pop("run_id", None)
        with open(path, "wt") as f:
            json.dump(data, f)
        return path

    return _patched(RunManifest, "write", truncated)


def _fault_serve_drops_queued_request():
    import asyncio

    from ..serve.batching import MicroBatcher

    orig = MicroBatcher.submit
    state = {"n": 0}

    async def dropping(self, payload):
        state["n"] += 1
        if state["n"] == 2:
            # the request vanishes from the queue: its future never
            # resolves, so no response is ever written for it
            return await asyncio.get_running_loop().create_future()
        return await orig(self, payload)

    return _patched(MicroBatcher, "submit", dropping)


def _fault_stale_crc_accepted():
    from ..storage import format as storage_fmt

    # the verifier accepts any checksum: bit rot and torn writes in
    # array files sail through level='crc' verification
    return _patched(storage_fmt, "_crc_ok",
                    lambda expected, actual: True)


def _fault_rowptr_colidx_desync():
    from ..storage.format import MatrixWriter

    orig = MatrixWriter._write_block

    def desynced(self, name, arr):
        if name == "colidx" and np.asarray(arr).size:
            arr = np.asarray(arr)[:-1]  # drop the chunk's last column
        orig(self, name, arr)

    return _patched(MatrixWriter, "_write_block", desynced)


def _fault_snapshot_reused_after_seed_change():
    import json

    from ..storage import snapshot as snap_mod

    def seedless(spec):
        pruned = {k: v for k, v in spec.items() if k != "seed"}
        return json.dumps(pruned, sort_keys=True,
                          separators=(",", ":"))

    return _patched(snap_mod, "_spec_key", seedless)


def _fault_hit_rate_unguarded():
    from ..obs import cachestats

    def unguarded(hits=0, misses=0, evictions=0, size_bytes=0, **extra):
        out = {
            "hits": int(hits), "misses": int(misses),
            "evictions": int(evictions),
            "hit_rate": hits / (hits + misses),  # no zero guard
            "size_bytes": int(size_bytes),
        }
        out.update(extra)
        return out

    return _patched(cachestats, "cache_stats", unguarded)


def _fault_bfs_level_off_by_one():
    from ..graph import bfs as bfs_mod

    orig = bfs_mod.bfs_levels_fast

    def merged(g, start):
        levels = orig(g, start).copy()
        top = levels.max(initial=-1)
        if top > 0:
            # the classic frontier off-by-one: the last BFS level is
            # folded into the one before it, so RCM's level structure
            # (and with it the Cuthill-McKee visit order) is wrong
            levels[levels == top] = top - 1
        return levels

    return _patched(bfs_mod, "bfs_levels_fast", merged)


def _fault_amd_stale_degree():
    from ..reorder import amd as amd_mod

    # the fast path's approximate degree stops discounting the mass of
    # just-eliminated supervariables — a stale degree that steers pivot
    # selection away from the reference's elimination order
    return _patched(amd_mod, "AMD_MASS_DISCOUNT", 0)


def _fault_fm_dropped_gain_update():
    from ..partition import fm as fm_mod

    # moving a vertex no longer updates its neighbours' gains (step 0
    # instead of 2x edge weight): the classic dropped-gain-update FM
    # bug, visible as a diverged GP/ND permutation
    return _patched(fm_mod, "NEIGHBOR_GAIN_STEP", 0)


def _fault_spgemm_drops_duplicate_products():
    from ..spmv import products

    orig = products._coalesce

    def keeps_first(nrows, ncols, rows, cols, vals):
        # keep only the first partial product of each (row, col) run
        # instead of summing the run — the classic missing-accumulate
        # SpGEMM bug
        if rows.size:
            order = np.lexsort((cols, rows))
            rows, cols, vals = rows[order], cols[order], vals[order]
            first = np.ones(rows.size, dtype=bool)
            first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
            rows, cols, vals = rows[first], cols[first], vals[first]
        return orig(nrows, ncols, rows, cols, vals)

    return _patched(products, "_coalesce", keeps_first)


def _fault_spgemm_zeroes_last_row():
    from ..matrix.csr import CSRMatrix
    from ..spmv import products

    orig = products.spgemm

    def zeroing(a, b=None):
        c = orig(a, b)
        vals = c.values.copy()
        vals[c.rowptr[c.nrows - 1]:c.rowptr[c.nrows]] = 0.0
        return CSRMatrix(c.nrows, c.ncols, c.rowptr, c.colidx, vals)

    return _patched(products, "spgemm", zeroing)


def _fault_spmm_zeroes_last_vector():
    from ..spmv import products

    orig = products.spmm

    def zeroing(a, x, kind="1d", nthreads=1):
        y = orig(a, x, kind, nthreads)
        y[:, -1] = 0.0  # the block loop stops one vector short
        return y

    return _patched(products, "spmm", zeroing)


def _fault_spmm_reuses_first_vector():
    from ..spmv import products

    orig = products.spmm

    def reusing(a, x, kind="1d", nthreads=1):
        y = orig(a, x, kind, nthreads)
        y[:, 1:] = y[:, :1]  # a stale column-offset bug: every output
        return y             # vector is the first one

    return _patched(products, "spmm", reusing)


def _fault_cg_stale_residual_norm():
    from ..solvers import iterative

    orig = iterative._residual_norm
    state = {"v": None}

    def stale(r):
        cur = orig(r)
        if state["v"] is None:
            state["v"] = cur
        return state["v"]  # the convergence test never sees progress

    return _patched(iterative, "_residual_norm", stale)


def _fault_solver_history_lags():
    from ..solvers import iterative

    state = {"prev": None}

    def lagged(x):
        out = state["prev"]
        state["prev"] = np.asarray(x).copy()
        if out is None or out.shape != x.shape:
            return np.zeros_like(x)
        return out  # the recorded iterate is one step behind

    return _patched(iterative, "_snapshot", lagged)


def _fault_jacobi_halved_diagonal():
    from ..solvers import iterative

    orig = iterative._inv_diag

    # the preconditioner halves the diagonal, doubling every update
    # step: the iteration overshoots and oscillates/diverges even on
    # diagonally dominant systems
    return _patched(iterative, "_inv_diag", lambda a: 2.0 * orig(a))


def _fault_jacobi_residual_skips_last_row():
    from ..solvers import iterative

    orig = iterative._jacobi_residual

    def truncated(b, y):
        r = orig(b, y)
        if r.size:
            r[-1] = 0.0  # the residual loop stops one row short, so
        return r         # the last unknown never moves off x0

    return _patched(iterative, "_jacobi_residual", truncated)


FAULTS = (
    Fault("bandwidth-off-by-one",
          "bandwidth() reports max|i-j| + 1",
          "bandwidth-matches-oracle", _features_target,
          _fault_bandwidth_off_by_one),
    Fault("imbalance-counts-empty-threads",
          "active_threads() reports every thread active (pre-fix "
          "behaviour: empty shares dilute the imbalance mean)",
          "imbalance-matches-active-partition", _features_target,
          _fault_imbalance_empty_threads),
    Fault("kernel-skips-last-thread",
          "the 1D kernel never computes the last thread's rows",
          "spmv-matches-dense-oracle", _kernels_target,
          _fault_kernel_skips_last_thread),
    Fault("kernel-2d-drops-boundary-partial",
          "the 2D kernel resets the last thread's boundary row but "
          "never adds that thread's partial sum",
          "spmv-matches-dense-oracle", _kernels_target,
          _fault_kernel_2d_drops_boundary_partial),
    Fault("kernel-2d-skips-boundary-reset",
          "the 2D kernel adds the boundary partials on top of the "
          "compiled row sums instead of restarting those rows from zero",
          "spmv-matches-dense-oracle", _kernels_target,
          _fault_kernel_2d_skips_boundary_reset),
    Fault("swapped-permutation-direction",
          "a symmetric ordering applies the inverse (old-to-new) "
          "permutation",
          "permuted-matrix-matches-dense-gather", _permutations_target,
          _fault_swapped_perm_direction),
    Fault("permute-skips-column-sort",
          "the unchecked PAPt build relabels columns without re-sorting "
          "them within each row",
          "permuted-matrix-is-canonical", _permutations_target,
          _fault_permute_skips_column_sort),
    Fault("prev-occurrence-off-by-one",
          "prev_occurrence() shifts every warm index down by one",
          "prev-occurrence-matches-naive", _model_target,
          _fault_prev_occurrence_off_by_one),
    Fault("model-fastpath-drift",
          "the memoised reuse statistics feed the fast path one extra "
          "line load",
          "fastpath-matches-naive-model", _model_target,
          _fault_model_fastpath_drift),
    Fault("grid-pass-cell-offset",
          "the grid pass reads every cell's previous occurrences at the "
          "first cell's offset in the concatenated stream",
          "fastpath-matches-naive-model", _model_target,
          _fault_grid_pass_cell_offset, expect_detail="grid "),
    Fault("dropped-journal-line",
          "SweepJournal silently drops the second record line",
          "journal-matches-metrics", _artifacts_target,
          _fault_dropped_journal_line),
    Fault("torn-trace-event",
          "the saved trace contains an event with negative duration",
          "artifact-schema", _artifacts_target,
          _fault_torn_trace_event, expect_detail="trace:"),
    Fault("manifest-missing-field",
          "the run manifest is written without its run_id",
          "artifact-schema", _artifacts_target,
          _fault_manifest_missing_field, expect_detail="manifest:"),
    Fault("sidecar-negative-duration",
          "the trace sidecar logs a span with negative duration",
          "artifact-schema", _artifacts_target,
          _fault_sidecar_negative_duration, expect_detail="sidecar:"),
    Fault("sidecar-orphaned-parent",
          "a sidecar span's parent_id points at a span that was never "
          "written (torn merge)",
          "artifact-schema", _artifacts_target,
          _fault_sidecar_orphaned_parent, expect_detail="sidecar:"),
    Fault("sidecar-child-exceeds-parent",
          "a sidecar child span's duration is inflated past its "
          "parent's interval (clock skew)",
          "artifact-schema", _artifacts_target,
          _fault_sidecar_child_exceeds_parent, expect_detail="sidecar:"),
    Fault("stale-cache-entry",
          "OrderingCache serves an identity permutation on cache hits",
          "cache-serves-fresh-result", _caches_target,
          _fault_stale_cache_entry),
    Fault("ordering-cache-skips-crc",
          "the ordering cache never checks an entry's CRC, so a disk "
          "entry with two permutation entries swapped is served",
          "cache-rejects-corrupt-entry", _caches_target,
          _fault_ordering_cache_skips_crc),
    Fault("bfs-level-off-by-one",
          "the vectorised BFS folds the last frontier level into its "
          "predecessor (RCM level-boundary off-by-one)",
          "fastpath-matches-reference", _fastpath_target,
          _fault_bfs_level_off_by_one, expect_detail="ordering=RCM"),
    Fault("amd-stale-degree",
          "the fast AMD path stops discounting just-eliminated mass "
          "from the approximate degree (stale degree)",
          "fastpath-matches-reference", _fastpath_target,
          _fault_amd_stale_degree, expect_detail="ordering=AMD"),
    Fault("fm-dropped-gain-update",
          "fast FM refinement no longer updates neighbour gains after "
          "a move",
          "fastpath-matches-reference", _fastpath_target,
          _fault_fm_dropped_gain_update, expect_detail="ordering=GP"),
    Fault("serve-drops-queued-request",
          "the serving micro-batcher silently drops the second queued "
          "request (its future never resolves)",
          "serving-answers-every-request", _serving_target,
          _fault_serve_drops_queued_request),
    Fault("hit-rate-unguarded",
          "cache_stats divides by hits+misses without a zero guard",
          "cache-hit-rate-finite", _caches_target,
          _fault_hit_rate_unguarded),
    Fault("stale-crc-accepted",
          "the snapshot verifier accepts any CRC, so corrupt array "
          "files pass level='crc' verification",
          "snapshot-detects-corruption", _storage_target,
          _fault_stale_crc_accepted),
    Fault("rowptr-colidx-desync",
          "the matrix writer drops each chunk's last column index, "
          "desynchronising colidx from rowptr/values",
          "snapshot-roundtrip-identical", _storage_target,
          _fault_rowptr_colidx_desync),
    Fault("snapshot-reused-after-seed-change",
          "snapshot reuse ignores the generator seed, serving stale "
          "matrices after a seed change",
          "snapshot-seed-changes-address", _storage_target,
          _fault_snapshot_reused_after_seed_change),
    Fault("spgemm-drops-duplicate-products",
          "SpGEMM keeps only the first partial product of each "
          "(row, col) run instead of summing the run",
          "spgemm-matches-dense-oracle", _kernels_target,
          _fault_spgemm_drops_duplicate_products),
    Fault("spgemm-zeroes-last-row",
          "SpGEMM never computes the last output row",
          "spgemm-matches-dense-oracle", _kernels_target,
          _fault_spgemm_zeroes_last_row),
    Fault("spmm-zeroes-last-vector",
          "SpMM stops one vector short of the dense block",
          "spmm-matches-dense-oracle", _kernels_target,
          _fault_spmm_zeroes_last_vector),
    Fault("spmm-reuses-first-vector",
          "SpMM serves the first output vector for every block column "
          "(stale column offset)",
          "spmm-matches-dense-oracle", _kernels_target,
          _fault_spmm_reuses_first_vector),
    Fault("cg-stale-residual-norm",
          "the solver's residual norm never updates past its first "
          "value, so the convergence test never sees progress",
          "cg-converges", _kernels_target,
          _fault_cg_stale_residual_norm, expect_detail="solver=cg"),
    Fault("solver-history-off-by-one",
          "the recorded iterate history lags the true iterate by one "
          "step",
          "solver-history-final-iterate", _kernels_target,
          _fault_solver_history_lags, expect_detail="solver=cg"),
    Fault("jacobi-halved-diagonal",
          "Jacobi's preconditioner halves the diagonal, doubling every "
          "update step into overshoot",
          "jacobi-converges", _kernels_target,
          _fault_jacobi_halved_diagonal, expect_detail="solver=jacobi"),
    Fault("jacobi-residual-skips-last-row",
          "Jacobi's residual loop stops one row short, converging to a "
          "wrong fixed point",
          "jacobi-matches-dense-solve", _kernels_target,
          _fault_jacobi_residual_skips_last_row,
          expect_detail="solver=jacobi"),
)


# ----------------------------------------------------------------------
# the smoke runner
# ----------------------------------------------------------------------
@dataclass
class MutationOutcome:
    fault: str
    caught: bool
    findings: int
    matched: int
    description: str


@dataclass
class MutationReport:
    outcomes: list = field(default_factory=list)
    baseline_clean: bool = True
    baseline_findings: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.baseline_clean and all(o.caught for o in self.outcomes)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "baseline_clean": self.baseline_clean,
            "outcomes": [vars(o) for o in self.outcomes],
        }

    def render(self) -> str:
        lines = [f"mutation smoke: {len(self.outcomes)} fault(s)"]
        if not self.baseline_clean:
            lines.append(
                "  BASELINE DIRTY — suites report findings without any "
                "injected fault:")
            for f in self.baseline_findings[:10]:
                lines.append(f"    {f}")
        for o in self.outcomes:
            status = "caught" if o.caught else "MISSED"
            lines.append(
                f"  [{status:>6}] {o.fault}: {o.description} "
                f"({o.matched}/{o.findings} finding(s) matched)")
        lines.append("mutation smoke: "
                     + ("OK — every fault caught" if self.ok else "FAILED"))
        return "\n".join(lines)


def _matches(finding, fault: Fault) -> bool:
    haystack = f"{finding.subject}: {finding.detail}"
    return (finding.invariant == fault.expect_invariant
            and (fault.expect_detail in haystack
                 if fault.expect_detail else True))


def run_mutation_smoke(seed: int = 0) -> MutationReport:
    """Inject every fault; assert its designated suite catches it."""
    report = MutationReport()
    with span("check.mutation"):
        # baseline: every target suite must be clean before injection
        for target in {f.target for f in FAULTS}:
            clean = target(seed)
            if not clean.ok:
                report.baseline_clean = False
                report.baseline_findings.extend(clean.findings)
        for fault in FAULTS:
            with span("check.mutation.fault", fault=fault.name):
                with fault.inject():
                    result = fault.target(seed)
            matched = sum(_matches(f, fault) for f in result.findings)
            report.outcomes.append(MutationOutcome(
                fault=fault.name,
                caught=matched > 0,
                findings=len(result.findings),
                matched=matched,
                description=fault.description))
    return report
