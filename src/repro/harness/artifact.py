"""Reader/writer for the paper's artifact data format.

The paper's Zenodo dataset (10.5281/zenodo.7821491) ships one
plain-text file per (kernel, machine), each with one row per matrix and
54 columns:

* columns 1–4: matrix ``group/name``, rows, columns, nonzeros;
* column 5: thread count used on that machine;
* columns 6–54: seven orderings (original, RCM, ND, AMD, GP, HP, Gray)
  × seven measurements each:

  1. min nonzeros processed by any thread
  2. max nonzeros processed by any thread
  3. mean nonzeros per thread
  4. imbalance factor (max/mean)
  5. seconds per iteration (min of 100)
  6. max Gflop/s (2·nnz / min time)
  7. mean Gflop/s (2·nnz / mean time of the last 97 iterations)

This module writes exactly that layout from a
:class:`~repro.harness.runner.SweepResult` and reads it back, so the
reproduction's data can be post-processed by the same gnuplot/spreadsheet
workflows the original artifact targets.
"""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np

from ..errors import HarnessError
from ..spmv.registry import KERNELS
from .runner import SweepResult

#: ordering column order used by the artifact files
ARTIFACT_ORDERINGS = ("original", "RCM", "ND", "AMD", "GP", "HP", "Gray")
COLUMNS_PER_ORDERING = 7
HEADER_COLUMNS = 5


def artifact_filename(kernel: str, arch_name: str, nthreads: int,
                      nmatrices: int) -> str:
    """The artifact's naming convention, e.g.
    ``csr_1d_milanb_128_threads_ss40.txt``."""
    slug = arch_name.lower().replace(" ", "")
    return f"csr_{kernel}_{slug}_{nthreads:03d}_threads_ss{nmatrices}.txt"


def write_artifact_file(sweep: SweepResult, corpus, kernel: str,
                        arch_name: str, target) -> None:
    """Write one artifact-format file for (kernel, machine).

    ``corpus`` provides the matrix metadata (group, dimensions) in row
    order; every corpus entry must have records for all seven orderings
    in the sweep.
    """
    if isinstance(target, (str, Path)):
        with open(target, "wt") as f:
            _write(sweep, corpus, kernel, arch_name, f)
    else:
        _write(sweep, corpus, kernel, arch_name, target)


def _write(sweep: SweepResult, corpus, kernel: str, arch_name: str,
           f) -> None:
    for entry in corpus:
        cells = [f"{entry.group.replace(' ', '_')}/{entry.name}",
                 str(entry.nrows), str(entry.matrix.ncols),
                 str(entry.nnz)]
        nthreads = None
        for ordering in ARTIFACT_ORDERINGS:
            try:
                rec = sweep.lookup(entry.name, ordering, kernel, arch_name)
            except KeyError as exc:
                raise HarnessError(
                    f"sweep lacks a record for {entry.name}/{ordering}/"
                    f"{kernel}/{arch_name}") from exc
            if nthreads is None:
                nthreads = rec.nthreads
                cells.append(str(nthreads))
            cells.extend([
                str(rec.nnz_min), str(rec.nnz_max),
                f"{rec.nnz_mean:.6g}", f"{rec.imbalance:.6g}",
                f"{rec.seconds:.9g}", f"{rec.gflops_max:.6g}",
                f"{rec.gflops_mean:.6g}",
            ])
        f.write(" ".join(cells) + "\n")


def read_artifact_file(source) -> list:
    """Parse an artifact-format file into a list of row dicts.

    Each row dict has keys ``group, name, nrows, ncols, nnz, nthreads``
    and, per ordering, a dict with the seven measurement fields.
    """
    if isinstance(source, (str, Path)) and "\n" not in str(source):
        with open(source, "rt") as f:
            return _read(f)
    if isinstance(source, str):
        return _read(io.StringIO(source))
    return _read(source)


def _read(f) -> list:
    rows = []
    expected = HEADER_COLUMNS + COLUMNS_PER_ORDERING * len(
        ARTIFACT_ORDERINGS)
    for lineno, line in enumerate(f, start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != expected:
            raise HarnessError(
                f"line {lineno}: expected {expected} columns, got "
                f"{len(parts)}")
        group, _, name = parts[0].partition("/")
        row = {
            "group": group,
            "name": name,
            "nrows": int(parts[1]),
            "ncols": int(parts[2]),
            "nnz": int(parts[3]),
            "nthreads": int(parts[4]),
        }
        for k, ordering in enumerate(ARTIFACT_ORDERINGS):
            base = HEADER_COLUMNS + k * COLUMNS_PER_ORDERING
            row[ordering] = {
                "nnz_min": int(parts[base]),
                "nnz_max": int(parts[base + 1]),
                "nnz_mean": float(parts[base + 2]),
                "imbalance": float(parts[base + 3]),
                "seconds": float(parts[base + 4]),
                "gflops_max": float(parts[base + 5]),
                "gflops_mean": float(parts[base + 6]),
            }
        rows.append(row)
    return rows


def export_all_artifacts(sweep: SweepResult, corpus, architectures,
                         out_dir) -> list:
    """Write the full artifact set (both kernels × all machines).

    Returns the written file paths; mirrors the original dataset's
    layout of one file per (kernel, machine).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for arch in architectures:
        for kernel in KERNELS:
            path = out_dir / artifact_filename(
                kernel, arch.name, arch.threads, len(corpus))
            write_artifact_file(sweep, corpus, kernel, arch.name, path)
            written.append(str(path))
    return written


def speedups_from_artifact(rows: list, ordering: str) -> np.ndarray:
    """Recompute reordering speedups from a parsed artifact file —
    the audit path the paper's appendix describes (max Gflop/s of the
    ordering divided by max Gflop/s of the original)."""
    if ordering not in ARTIFACT_ORDERINGS:
        raise HarnessError(f"unknown ordering {ordering!r}")
    return np.array([
        r[ordering]["gflops_max"] / r["original"]["gflops_max"]
        for r in rows
    ])
