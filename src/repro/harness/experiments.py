"""One entry point per table/figure of the paper's evaluation section.

Each function takes pre-built inputs (corpus, sweep results, caches) so
benchmarks can share work, and returns plain data structures that
:mod:`repro.harness.report` renders as text.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..analysis.classes import ClassificationInput, classify_matrix
from ..analysis.perfprofile import performance_profile
from ..analysis.stats import boxplot_summary, geomean
from ..cholesky.fill import fill_ratio
from ..errors import HarnessError
from ..features import bandwidth, offdiagonal_nonzeros, profile
from ..generators.suite import named_matrix
from ..machine.arch import Architecture, get_architecture
from ..machine.bench import simulate_measurement
from ..machine.model import PerfModel
from ..matrix.dense import tall_skinny_dense_csr
from ..reorder import ALL_ORDERINGS
from ..spmv.schedule import schedule_1d
from ..util.timing import Timer
from .runner import OrderingCache, SweepResult

REORDERINGS = tuple(o for o in ALL_ORDERINGS if o != "original")


# ----------------------------------------------------------------------
# Figures 2 & 3 + Tables 3 & 4: speedup distributions and geomeans
# ----------------------------------------------------------------------
@dataclass
class SpeedupStudy:
    """Speedup distributions for one kernel across archs and orderings."""

    kernel: str
    boxes: dict = field(default_factory=dict)     # (arch, ord) -> 5-tuple
    geomeans: dict = field(default_factory=dict)  # (arch, ord) -> float
    raw: dict = field(default_factory=dict)       # (arch, ord) -> ndarray

    def geomean_table(self, architectures, orderings) -> list:
        """Rows of Table 3/4 incl. per-row and per-column means."""
        rows = []
        for arch in architectures:
            vals = [self.geomeans[(arch, o)] for o in orderings]
            rows.append([arch] + vals + [float(np.exp(
                np.mean(np.log(vals))))])
        col_means = []
        for j, o in enumerate(orderings):
            col = [self.geomeans[(a, o)] for a in architectures]
            col_means.append(float(np.exp(np.mean(np.log(col)))))
        total = float(np.exp(np.mean(np.log(col_means))))
        rows.append(["Mean"] + col_means + [total])
        return rows


def _require_complete(sweep: SweepResult, architectures,
                      kernel: str) -> None:
    """Raise unless every swept matrix has every (ordering, arch) cell
    of ``kernel``: a gap would silently shrink a distribution."""
    if sweep.failed:
        first = sweep.failed[0]
        raise HarnessError(
            f"{len(sweep.failed)} sweep cell(s) failed; first: "
            f"{first.matrix}/{first.ordering}/{first.kernel}/"
            f"{first.architecture} at {first.stage}: {first.error}: "
            f"{first.message}")
    if not sweep.records:
        raise HarnessError("sweep holds no records")
    have = {(r.matrix, r.ordering, r.kernel, r.architecture)
            for r in sweep.records}
    for m in sweep.matrices():
        for o in ("original",) + REORDERINGS:
            for arch in architectures:
                if (m, o, kernel, arch) not in have:
                    raise HarnessError(
                        f"sweep holds no record for {m}/{o}/{kernel}/"
                        f"{arch}")


def experiment_speedups(sweep: SweepResult, architectures,
                        kernel: str) -> SpeedupStudy:
    """Figures 2/3 + Tables 3/4 from a complete sweep.

    Raises :class:`HarnessError` naming the first failed or missing
    (matrix, ordering, kernel, arch) cell if the sweep is incomplete.
    """
    _require_complete(sweep, architectures, kernel)
    study = SpeedupStudy(kernel=kernel)
    for arch in architectures:
        for o in REORDERINGS:
            sp = sweep.speedups(o, kernel, arch)
            study.raw[(arch, o)] = sp
            study.boxes[(arch, o)] = boxplot_summary(sp)
            study.geomeans[(arch, o)] = geomean(sp)
    return study


# ----------------------------------------------------------------------
# Figure 1: named-matrix showcase (RCM/ND/GP on Milan B & Ice Lake)
# ----------------------------------------------------------------------
FIG1_MATRICES = ("Freescale2", "com-Amazon", "kmer_V1r")
FIG1_ORDERINGS = ("RCM", "ND", "GP")
FIG1_ARCHS = ("Milan B", "Ice Lake")


def experiment_fig1_showcase(cache: OrderingCache | None = None,
                             scale: float = 1.0, seed=0) -> dict:
    """Speedups of RCM/ND/GP for the three Figure 1 stand-ins.

    Returns {(matrix, arch): {ordering: speedup}} using the 1D kernel
    and max-performance semantics, exactly as the figure's caption
    describes.
    """
    cache = cache or OrderingCache()
    out = {}
    for name in FIG1_MATRICES:
        entry = named_matrix(name, scale=scale, seed=seed)
        for arch_name in FIG1_ARCHS:
            arch = get_architecture(arch_name)
            model = PerfModel(arch)
            base = simulate_measurement(entry.matrix, arch, "1d",
                                        name, "original", model=model)
            cell = {}
            for o in FIG1_ORDERINGS:
                r = cache.get(entry.matrix, name, o,
                              nparts=arch.gp_parts, seed=seed)
                b = r.apply(entry.matrix)
                rec = simulate_measurement(b, arch, "1d", name, o,
                                           model=model)
                cell[o] = rec.gflops_max / base.gflops_max
            out[(name, arch_name)] = cell
    return out


# ----------------------------------------------------------------------
# Figure 4: six-class analysis
# ----------------------------------------------------------------------
CLASS_REPRESENTATIVES = {
    1: "333SP",
    2: "nv2",
    3: "audikw_1",
    4: "HV15R",
    5: "kron_g500-logn21",
    6: "mycielskian19",
}
FIG4_ARCHS = ("Milan B", "Ice Lake", "Hi1620")  # one per vendor


def experiment_classes(cache: OrderingCache | None = None,
                       scale: float = 1.0, seed=0) -> dict:
    """Per-class representative analysis (Figure 4).

    Returns {class_id: {"matrix": name, arch: {ordering: dict}}} where
    the inner dict holds 1D/2D speedups and imbalance before/after plus
    the assigned class.
    """
    cache = cache or OrderingCache()
    out = {}
    for cls, name in CLASS_REPRESENTATIVES.items():
        entry = named_matrix(name, scale=scale, seed=seed)
        a = entry.matrix
        per_arch = {"matrix": name}
        for arch_name in FIG4_ARCHS:
            arch = get_architecture(arch_name)
            model = PerfModel(arch)
            b1 = simulate_measurement(a, arch, "1d", name, "original",
                                      model=model)
            b2 = simulate_measurement(a, arch, "2d", name, "original",
                                      model=model)
            cells = {}
            for o in REORDERINGS:
                r = cache.get(a, name, o, nparts=arch.gp_parts, seed=seed)
                m = r.apply(a)
                m1 = simulate_measurement(m, arch, "1d", name, o,
                                          model=model)
                m2 = simulate_measurement(m, arch, "2d", name, o,
                                          model=model)
                obs = ClassificationInput(
                    speedup_1d=m1.gflops_max / b1.gflops_max,
                    speedup_2d=m2.gflops_max / b2.gflops_max,
                    imbalance_before=b1.imbalance,
                    imbalance_after=m1.imbalance)
                cells[o] = {
                    "speedup_1d": obs.speedup_1d,
                    "speedup_2d": obs.speedup_2d,
                    "imbalance_before": obs.imbalance_before,
                    "imbalance_after": obs.imbalance_after,
                    "class": classify_matrix(obs),
                }
            per_arch[arch_name] = cells
        out[cls] = per_arch
    return out


# ----------------------------------------------------------------------
# Figure 5: performance profiles for features + SpMV runtime
# ----------------------------------------------------------------------
def experiment_feature_profiles(corpus, cache: OrderingCache,
                                arch: Architecture | None = None,
                                seed=0, workloads: tuple = ()) -> dict:
    """Dolan–Moré profiles of bandwidth, profile, off-diagonal nonzero
    count and SpMV runtime (Milan B by default), per ordering incl.
    original.  Returns {feature_name: profiles-dict}.

    ``workloads`` adds one ``"<workload>_time"`` profile per named
    workload (:data:`repro.spmv.registry.WORKLOADS`), scoring the same
    reordered matrices through
    :func:`repro.machine.workloads.predict_workload` — so solver loops
    and SpGEMM/SpMM get the same best-ordering comparison the plain
    SpMV time gets.  SpGEMM only scores square matrices; rectangular
    corpus entries drop out of that profile.
    """
    from ..machine.workloads import predict_workload

    arch = arch or get_architecture("Milan B")
    model = PerfModel(arch)
    names = list(ALL_ORDERINGS)
    costs_bw = {o: [] for o in names}
    costs_prof = {o: [] for o in names}
    costs_off = {o: [] for o in names}
    costs_time = {o: [] for o in names}
    costs_wl = {w: {o: [] for o in names} for w in workloads}
    for entry in corpus:
        a = entry.matrix
        for o in names:
            if o == "original":
                m = a
            else:
                r = cache.get(a, entry.name, o, nparts=arch.gp_parts,
                              seed=seed)
                m = r.apply(a)
            costs_bw[o].append(bandwidth(m))
            costs_prof[o].append(profile(m))
            costs_off[o].append(offdiagonal_nonzeros(m, arch.threads))
            pred = model.predict(m, schedule_1d(m, arch.threads))
            costs_time[o].append(pred.seconds)
            for w in workloads:
                if w == "spgemm" and not m.is_square:
                    continue
                wp = predict_workload(m, w, arch, pred)
                costs_wl[w][o].append(wp.seconds)
    out = {
        "bandwidth": performance_profile(costs_bw),
        "profile": performance_profile(costs_prof),
        "offdiag": performance_profile(costs_off),
        "spmv_time": performance_profile(costs_time),
    }
    for w in workloads:
        if any(costs_wl[w][o] for o in names):
            out[f"{w}_time"] = performance_profile(costs_wl[w])
    return out


# ----------------------------------------------------------------------
# Figure 6: Cholesky fill
# ----------------------------------------------------------------------
def experiment_cholesky_fill(corpus, cache: OrderingCache, seed=0) -> dict:
    """Fill ratio distributions per ordering over the SPD subset.

    Gray is excluded (unsymmetric, §4.6).  Returns
    {ordering: five-number-summary, "_raw": {ordering: list}}.
    """
    spd = [e for e in corpus if e.spd]
    if not spd:
        raise HarnessError("corpus holds no SPD entries")
    symmetric_orderings = [o for o in ALL_ORDERINGS if o != "Gray"]
    raw = {o: [] for o in symmetric_orderings}
    for entry in spd:
        a = entry.matrix
        for o in symmetric_orderings:
            if o == "original":
                raw[o].append(fill_ratio(a))
            else:
                r = cache.get(a, entry.name, o, nparts=64, seed=seed)
                raw[o].append(fill_ratio(a, r))
    out = {o: boxplot_summary(v) for o, v in raw.items()}
    out["_raw"] = raw
    return out


# ----------------------------------------------------------------------
# Table 5: reordering overhead
# ----------------------------------------------------------------------
TABLE5_MATRICES = ("delaunay_n24", "europe_osm", "Flan_1565", "HV15R",
                   "indochina-2004", "kmer_V1r", "kron_g500-logn21",
                   "mycielskian19", "nlpkkt240", "vas_stokes_4M")


def experiment_overhead(scale: float = 1.0, seed=0,
                        arch_name: str = "Ice Lake") -> list:
    """Measure wall-clock reordering time per algorithm for the ten
    Table 5 stand-ins, plus the modelled single-iteration SpMV time.

    Returns rows ``[matrix, t_RCM, t_AMD, t_ND, t_GP, t_HP, t_Gray,
    t_spmv]`` in seconds, mirroring the table's layout.
    """
    from ..reorder import compute_ordering

    arch = get_architecture(arch_name)
    model = PerfModel(arch)
    rows = []
    for name in TABLE5_MATRICES:
        entry = named_matrix(name, scale=scale, seed=seed)
        a = entry.matrix
        row = [name]
        for o in ("RCM", "AMD", "ND", "GP", "HP", "Gray"):
            with Timer() as t:
                compute_ordering(a, o, nparts=arch.gp_parts, seed=seed)
            row.append(t.elapsed)
        pred = model.predict(a, schedule_1d(a, arch.threads))
        row.append(pred.seconds)
        rows.append(row)
    return rows


def amortization_iterations(reorder_seconds: float, spmv_before: float,
                            speedup: float) -> float:
    """§4.7's break-even count: SpMV iterations needed before reordering
    pays for itself (infinite if the reordering does not speed SpMV up).
    """
    if speedup <= 1.0:
        return float("inf")
    saved_per_iter = spmv_before * (1.0 - 1.0 / speedup)
    return reorder_seconds / saved_per_iter


# ----------------------------------------------------------------------
# §4.2 dense reference and §4.3 2D-vs-1D comparison
# ----------------------------------------------------------------------
def dense_reference_experiment(arch_name: str = "Milan B",
                               scale: float = 0.1) -> dict:
    """The tall-skinny dense CSR calibration point (§4.2)."""
    from ..machine.model import BYTES_PER_NNZ

    arch = get_architecture(arch_name)
    a = tall_skinny_dense_csr(nrows=int(96_000 * scale),
                              ncols=int(4_000 * scale), seed=0)
    model = PerfModel(arch)
    pred = model.predict(a, schedule_1d(a, arch.threads))
    achieved_bw = BYTES_PER_NNZ * a.nnz / pred.seconds
    return {
        "arch": arch_name,
        "gflops": pred.gflops,
        "bytes_per_second": achieved_bw,
        "fraction_of_peak": achieved_bw / arch.bandwidth,
        "llc_residency": pred.llc_residency,
    }


def two_d_vs_one_d(sweep: SweepResult, arch: str,
                   ordering: str = "original") -> np.ndarray:
    """Per-matrix speedup of the 2D kernel over the 1D kernel with the
    same ordering (§4.3's quartile discussion)."""
    ratios = []
    for m in sweep.matrices():
        r1 = sweep.lookup(m, ordering, "1d", arch)
        r2 = sweep.lookup(m, ordering, "2d", arch)
        ratios.append(r2.gflops_max / r1.gflops_max)
    return np.array(ratios)
