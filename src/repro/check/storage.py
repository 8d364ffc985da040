"""Check suite: the out-of-core storage layer (:mod:`repro.storage`).

Differential invariants over real snapshot builds in a temporary
directory:

* **roundtrip** — write → memmap-open returns bit-identical arrays;
* **content addressing** — same bytes, same address; different seed,
  different address; a rebuilt (quarantined) snapshot converges to the
  uninterrupted build's address;
* **corruption detection** — a flipped byte fails CRC verification, a
  truncated array fails the size check, and a snapshot whose spec
  changed is rebuilt rather than reused;
* **memmap equivalence** — a sweep over memmap-attached stored
  matrices produces records bit-identical to the same sweep over the
  in-RAM corpus.

The suite is the detection target of the three storage faults in
:mod:`repro.check.mutation` (stale CRC accepted, rowptr/colidx
desync, snapshot reuse across a seed change).
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from ..errors import ReproError
from ..storage import format as fmt
from ..storage import snapshot as snap_mod
from .findings import CheckReport

SUITE = "storage"

#: cheap deterministic slice of the tiny tier — two banded matrices
#: are enough to exercise every format/snapshot path
_SPEC = dict(tier="tiny", limit=2, groups=("Banded",))


def _ensure(path, seed, **overrides):
    spec = dict(_SPEC)
    spec.update(overrides)
    return snap_mod.ensure_corpus_snapshot(path, seed=seed, **spec)


def _records(corpus, seed):
    """Run a tiny deterministic sweep and return its sorted records."""
    from ..harness.engine import SweepEngine
    from ..machine import get_architecture

    engine = SweepEngine(corpus, [get_architecture("Rome")],
                        ["RCM", "Gray"], kernels=("1d",), seed=seed)
    result = engine.run()
    recs = sorted((r.matrix, r.ordering, r.kernel, r.architecture,
                   r.gflops_max, r.gflops_mean, r.seconds)
                  for r in result.records)
    return recs, result.failed


def check_storage(seed: int = 0) -> CheckReport:
    report = CheckReport(suites=[SUITE])
    checks = (_check_roundtrip, _check_content_address,
              _check_corruption, _check_quarantine, _check_seed_change,
              _check_memmap_equivalence, _check_attach_stats)
    with tempfile.TemporaryDirectory(prefix="repro_check_storage_") as tmp:
        for fn in checks:
            try:
                fn(report, tmp, seed)
            except ReproError as exc:
                # a storage layer broken enough to *raise* out of a
                # sub-check is a finding, not a suite crash — the
                # mutation smoke relies on faults degrading gracefully
                report.case()
                report.fail(SUITE, "storage-suite-error",
                            fn.__name__.lstrip("_"),
                            f"{type(exc).__name__}: {exc}")
    return report


def _check_roundtrip(report, tmp, seed) -> None:
    """Stored matrices reopen bit-identically through the memmap path."""
    from ..generators import build_corpus

    corpus = build_corpus("tiny", seed=seed, groups=("Banded",))[:2]
    for entry in corpus:
        path = os.path.join(tmp, f"rt_{entry.name}")
        subject = f"matrix={entry.name}"
        try:
            fmt.write_matrix(path, entry.matrix,
                             meta={"name": entry.name})
            b = fmt.open_matrix(path, verify="crc")
        except ReproError as exc:
            report.case()
            report.fail(SUITE, "snapshot-roundtrip-identical", subject,
                        f"write/open raised {type(exc).__name__}: {exc}")
            continue
        a = entry.matrix
        same = (a.nrows == b.nrows and a.ncols == b.ncols
                and np.array_equal(a.rowptr, b.rowptr)
                and np.array_equal(a.colidx, b.colidx)
                and np.array_equal(a.values, b.values))
        report.check(same, SUITE, "snapshot-roundtrip-identical",
                     subject,
                     "memmap-opened arrays differ from the written "
                     "matrix")
        from ..obs.cachestats import mapped_nbytes

        report.check(mapped_nbytes(b.values) == b.values.nbytes, SUITE,
                     "snapshot-roundtrip-identical", subject,
                     "open_matrix returned heap arrays, not memmap "
                     "views (zero-copy worker attach would silently "
                     "materialise)")


def _check_content_address(report, tmp, seed) -> None:
    """Same bytes hash to the same address; different bytes don't."""
    from ..generators import build_corpus

    entry = build_corpus("tiny", seed=seed, groups=("Banded",))[0]
    sig1 = fmt.write_matrix(os.path.join(tmp, "ca_1"), entry.matrix)
    sig2 = fmt.write_matrix(os.path.join(tmp, "ca_2"), entry.matrix)
    report.check(sig1 == sig2, SUITE, "snapshot-content-address",
                 f"matrix={entry.name}",
                 f"two writes of the same matrix got different "
                 f"addresses {sig1} vs {sig2}")
    other = build_corpus("tiny", seed=seed + 1, groups=("Banded",))[0]
    sig3 = fmt.write_matrix(os.path.join(tmp, "ca_3"), other.matrix)
    report.check(sig1 != sig3, SUITE, "snapshot-content-address",
                 f"matrix={entry.name}",
                 f"different matrix content hashed to the same "
                 f"address {sig1}")


def _check_corruption(report, tmp, seed) -> None:
    """A flipped byte must fail CRC; a truncated array must fail the
    size check."""
    from ..generators import build_corpus

    entry = build_corpus("tiny", seed=seed, groups=("Banded",))[0]
    subject = f"matrix={entry.name}"

    path = os.path.join(tmp, "corrupt")
    fmt.write_matrix(path, entry.matrix)
    vpath = os.path.join(path, "values.bin")
    with open(vpath, "r+b") as fh:
        fh.seek(8)
        byte = fh.read(1)
        fh.seek(8)
        fh.write(bytes([byte[0] ^ 0xFF]))
    report.check(bool(fmt.verify_matrix(path, level="crc")), SUITE,
                 "snapshot-detects-corruption", subject,
                 "a flipped byte in values.bin passed level='crc' "
                 "verification")

    path = os.path.join(tmp, "torn")
    fmt.write_matrix(path, entry.matrix)
    cpath = os.path.join(path, "colidx.bin")
    with open(cpath, "r+b") as fh:
        fh.truncate(os.path.getsize(cpath) - 8)
    report.check(bool(fmt.verify_matrix(path, level="size")), SUITE,
                 "snapshot-detects-truncation", subject,
                 "a truncated colidx.bin passed level='size' "
                 "verification (rowptr/colidx/values out of sync)")


def _check_quarantine(report, tmp, seed) -> None:
    """A snapshot killed mid-write is quarantined and regenerated to
    the uninterrupted build's content address."""
    clean_dir = os.path.join(tmp, "q_clean")
    torn_dir = os.path.join(tmp, "q_torn")
    clean = _ensure(clean_dir, seed)
    torn = _ensure(torn_dir, seed)
    victim = torn.entries[0]
    # simulate a mid-write kill: one matrix torn, the index (written
    # last in a real build) gone
    vpath = os.path.join(victim.path, "values.bin")
    with open(vpath, "r+b") as fh:
        fh.truncate(os.path.getsize(vpath) // 2)
    os.remove(os.path.join(torn_dir, "corpus.json"))
    try:
        repaired = _ensure(torn_dir, seed)
    except ReproError as exc:
        report.case()
        report.fail(SUITE, "snapshot-quarantine-regenerates",
                    f"matrix={victim.name}",
                    f"repair raised {type(exc).__name__}: {exc}")
        return
    qdir = os.path.join(torn_dir, "_quarantine")
    report.check(os.path.isdir(qdir) and os.listdir(qdir), SUITE,
                 "snapshot-quarantine-regenerates",
                 f"matrix={victim.name}",
                 "the torn matrix was not quarantined (nothing under "
                 "_quarantine/)")
    report.check(repaired.signature == clean.signature, SUITE,
                 "snapshot-quarantine-regenerates",
                 f"matrix={victim.name}",
                 f"regenerated snapshot address {repaired.signature} "
                 f"!= uninterrupted build {clean.signature} "
                 "(regeneration is not deterministic)")


def _check_seed_change(report, tmp, seed) -> None:
    """Re-ensuring a snapshot under a different seed must rebuild it,
    not reuse the stale matrices."""
    path = os.path.join(tmp, "seeded")
    old = _ensure(path, seed)
    new = _ensure(path, seed + 1)
    fresh = _ensure(os.path.join(tmp, "seeded_fresh"), seed + 1)
    report.check(new.signature != old.signature, SUITE,
                 "snapshot-seed-changes-address", f"dir={path}",
                 f"seed {seed}->{seed + 1} left the corpus address at "
                 f"{old.signature} — stale matrices were reused across "
                 "a generator-seed change")
    report.check(new.signature == fresh.signature, SUITE,
                 "snapshot-seed-changes-address", f"dir={path}",
                 f"rebuilt-in-place address {new.signature} != fresh "
                 f"seed-{seed + 1} build {fresh.signature}")


def _check_memmap_equivalence(report, tmp, seed) -> None:
    """A sweep over memmap-attached stored entries must be
    bit-identical to the same sweep over the in-RAM corpus."""
    from ..generators import build_corpus

    inram = build_corpus("tiny", seed=seed, groups=("Banded",))[:2]
    stored = _ensure(os.path.join(tmp, "sweep"), seed)
    ref_recs, ref_failed = _records(inram, seed)
    mm_recs, mm_failed = _records(list(stored.entries), seed)
    subject = "corpus=tiny/Banded[:2] arch=Rome kernel=1d"
    report.check(not ref_failed and not mm_failed, SUITE,
                 "memmap-sweep-matches-inram", subject,
                 f"sweep failures: inram={len(ref_failed)} "
                 f"memmap={len(mm_failed)}")
    report.check(mm_recs == ref_recs, SUITE,
                 "memmap-sweep-matches-inram", subject,
                 "records over memmap-attached matrices differ from "
                 "the in-RAM corpus (memmap attach changed results)")


def _check_attach_stats(report, tmp, seed) -> None:
    """The attach memo reports mapped (not resident) bytes in the
    unified cache-stats schema."""
    from ..obs.cachestats import CACHE_STATS_KEYS

    stats = fmt.attach_cache_stats()
    subject = "cache=storage.attach"
    missing = [k for k in CACHE_STATS_KEYS if k not in stats]
    report.check(not missing, SUITE, "cache-stats-schema", subject,
                 f"missing shared keys {missing}")
    # the memmap-equivalence sweep above attached matrices in this
    # process, so the memo must be non-empty and billed as mapped
    report.check(stats.get("mapped_bytes", 0) > 0
                 and stats.get("size_bytes", 1) == 0,
                 SUITE, "cache-stats-schema", subject,
                 f"memmap attachments billed wrongly: size_bytes="
                 f"{stats.get('size_bytes')} mapped_bytes="
                 f"{stats.get('mapped_bytes')} (mapped arrays must "
                 "not count as resident)")
