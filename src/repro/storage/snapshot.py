"""Content-addressed corpus snapshots.

A snapshot is a directory of stored matrices (one
:mod:`repro.storage.format` sub-directory per corpus entry) plus a
``corpus.json`` index::

    <dir>/
      corpus.json          format, version, spec, entries, signature
      <matrix-name>/       one stored matrix each (header + 3 arrays)
      _quarantine/         corrupt snapshots moved aside, never deleted

``corpus.json`` is written **last** (atomically, via a temp file), so
it doubles as the commit marker: a build killed mid-corpus leaves no
index, and the next :func:`ensure_corpus_snapshot` resumes by reusing
every per-matrix directory that verifies clean and rebuilding only the
torn ones.

Identity is content-addressed end to end.  Each matrix's signature is
the hash of its header (dims + per-array CRCs,
:func:`repro.storage.format.header_signature`); the corpus signature
is a hash over the sorted ``name signature`` pairs.  Because the
streamed generators are deterministic in ``(seed, spec)``, a quarantined
matrix regenerates to the **same** content address an uninterrupted
write would have produced — which is what lets ``--resume`` reattach a
snapshot by address instead of trusting mtimes.

Reuse is gated on :func:`_spec_key`: a per-matrix ``meta`` records the
generation spec (tier, seed, scale) and a snapshot whose recorded spec
differs — e.g. after a generator-seed change — is quarantined and
rebuilt rather than silently reused.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass, field

from ..errors import StorageError
from ..obs.metrics import REGISTRY
from ..util.validate import require
from . import format as fmt

__all__ = [
    "StoredEntry", "CorpusSnapshot", "ensure_corpus_snapshot",
    "open_corpus_snapshot", "corpus_signature", "quarantine",
    "CORPUS_FORMAT", "CORPUS_VERSION",
]

CORPUS_FORMAT = "repro-corpus"
CORPUS_VERSION = 1

_INDEX = "corpus.json"
_QUARANTINE = "_quarantine"


def _spec_key(spec: dict) -> str:
    """Canonical string form of a generation spec.

    Matrix reuse compares the spec recorded in a stored header against
    the one requested now; **every** field that changes the generated
    bytes (tier, seed, scale) must round-trip through here, or a stale
    snapshot would be silently reused after, say, a seed change.
    """
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class StoredEntry:
    """A corpus entry backed by an on-disk matrix instead of RAM.

    Duck-types :class:`repro.generators.suite.CorpusEntry` (name, group,
    kind, spd, tags, nrows, ncols, nnz and a ``matrix`` accessor) so the
    sweep engine and CLI treat both interchangeably.  Pickling ships
    only this metadata — the arrays stay on disk and each worker
    process memmaps them on first touch via the attach memo.
    """

    name: str
    group: str
    kind: str
    spd: bool
    tags: tuple
    path: str
    signature: str
    nrows: int
    ncols: int
    nnz: int

    @property
    def matrix(self):
        return fmt.attach_matrix(self.path)


@dataclass(frozen=True)
class CorpusSnapshot:
    """An opened snapshot: the index plus one StoredEntry per matrix."""

    path: str
    tier: str
    seed: int
    signature: str
    spec: dict
    entries: tuple = field(default_factory=tuple)

    def __len__(self) -> int:
        return len(self.entries)


def quarantine(root: str, name: str) -> str:
    """Move a corrupt matrix directory into ``<root>/_quarantine``.

    Nothing is deleted — torn snapshots stay inspectable.  Returns the
    quarantine destination.
    """
    src = os.path.join(root, name)
    qdir = os.path.join(root, _QUARANTINE)
    os.makedirs(qdir, exist_ok=True)
    for k in range(10_000):
        dst = os.path.join(qdir, f"{name}.{k}")
        if not os.path.exists(dst):
            break
    shutil.move(src, dst)
    REGISTRY.counter("storage.snapshots_quarantined").inc()
    return dst


def _entry_spec(tier: str, seed: int, scale: float) -> dict:
    return {"tier": tier, "seed": int(seed), "scale": float(scale)}


def _reusable(mdir: str, spec_key: str) -> bool:
    """True iff ``mdir`` holds a clean matrix generated under the same
    spec.  Verification is full-CRC — reuse must never trust a torn or
    bit-rotted write."""
    if not os.path.isdir(mdir):
        return False
    if fmt.verify_matrix(mdir, level="crc"):
        return False
    header = fmt.read_header(mdir)
    return header.get("meta", {}).get("spec_key") == spec_key


def _ensure_matrix(root: str, name: str, spec_key: str, build) -> str:
    """Reuse the stored matrix ``<root>/<name>`` if clean and
    spec-matching; otherwise quarantine whatever is there and rebuild
    via ``build(path, meta)``.  Returns the content address."""
    mdir = os.path.join(root, name)
    if _reusable(mdir, spec_key):
        REGISTRY.counter("storage.snapshots_reused").inc()
        return fmt.matrix_signature(mdir)
    if os.path.isdir(mdir):
        quarantine(root, name)
    signature = build(mdir, {"name": name, "spec_key": spec_key})
    REGISTRY.counter("storage.snapshots_built").inc()
    return signature


def _corpus_signature_of(pairs) -> str:
    lines = "\n".join(f"{name} {sig}" for name, sig in sorted(pairs))
    return hashlib.sha256(lines.encode()).hexdigest()[:16]


def _iter_planned(tier: str, seed: int, limit, scale: float, groups):
    """Yield ``(name, group, kind, spd, tags, build)`` per planned
    entry, where ``build(path, meta) -> signature`` writes the matrix.

    Standard tiers delegate to :func:`repro.generators.suite.build_corpus`
    (matrices fit in RAM by construction); the ``xl`` tier streams each
    recipe straight to disk so the dense intermediate never exists.
    """
    if tier == "xl":
        from ..generators.stream import xl_recipes

        recipes = [r for r in xl_recipes()
                   if groups is None or r.group in groups]
        for recipe in recipes[:limit]:
            def build(path, meta, recipe=recipe):
                nrows, ncols, chunks = recipe.make(seed, scale)
                with fmt.MatrixWriter(path, nrows, ncols, meta=meta) as w:
                    for row_lengths, colidx, values in chunks:
                        w.append_chunk(row_lengths, colidx, values)
                    return w.commit()
            yield (recipe.name, recipe.group, recipe.kind, recipe.spd,
                   recipe.tags, build)
        return
    from ..generators.suite import build_corpus

    for entry in build_corpus(tier=tier, seed=seed, groups=groups)[:limit]:
        def build(path, meta, entry=entry):
            return fmt.write_matrix(path, entry.matrix, meta=meta)
        yield (entry.name, entry.group, entry.kind, entry.spd,
               entry.tags, build)


def ensure_corpus_snapshot(path: str, tier: str = "tiny", seed: int = 0,
                           limit=None, scale: float = 1.0,
                           groups=None) -> CorpusSnapshot:
    """Idempotently materialise a corpus snapshot at ``path``.

    A complete snapshot whose spec matches is opened as-is; a torn or
    spec-mismatched one is repaired per matrix (clean + same spec →
    reuse, anything else → quarantine + deterministic rebuild) and the
    index rewritten.  The result is byte-identical — same content
    address — whether the build ran once, resumed after a kill, or
    repaired a corrupt matrix.
    """
    groups = tuple(groups) if groups is not None else None
    spec = {"tier": tier, "seed": int(seed),
            "limit": None if limit is None else int(limit),
            "scale": float(scale),
            "groups": list(groups) if groups is not None else None}
    index = _read_index(path)
    if index is not None and _spec_key(index["spec"]) == _spec_key(spec):
        try:
            return open_corpus_snapshot(path)
        except StorageError:
            pass  # torn matrices behind a stale index: fall through
    os.makedirs(path, exist_ok=True)
    entry_key = _spec_key(_entry_spec(tier, seed, scale))
    records = []
    for name, group, kind, spd, tags, build in _iter_planned(
            tier, seed, limit, scale, groups):
        signature = _ensure_matrix(path, name, entry_key, build)
        header = fmt.read_header(os.path.join(path, name))
        records.append({
            "name": name, "group": group, "kind": kind, "spd": spd,
            "tags": list(tags), "relpath": name, "signature": signature,
            "nrows": header["nrows"], "ncols": header["ncols"],
            "nnz": header["nnz"],
        })
    index = {
        "format": CORPUS_FORMAT,
        "version": CORPUS_VERSION,
        "spec": spec,
        "entries": records,
        "signature": _corpus_signature_of(
            (r["name"], r["signature"]) for r in records),
    }
    tmp = os.path.join(path, f"{_INDEX}.tmp-{os.getpid()}")
    with open(tmp, "w") as fh:
        json.dump(index, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, os.path.join(path, _INDEX))
    return open_corpus_snapshot(path)


def _read_index(path: str):
    try:
        with open(os.path.join(path, _INDEX)) as fh:
            index = json.load(fh)
    except (OSError, ValueError):
        return None
    if (index.get("format") != CORPUS_FORMAT
            or index.get("version") != CORPUS_VERSION
            or not isinstance(index.get("entries"), list)):
        return None
    return index


def open_corpus_snapshot(path: str, verify: str = "size") -> CorpusSnapshot:
    """Open an existing snapshot, verifying every matrix at ``verify``
    level and re-deriving the corpus signature from the stored headers
    (never trusting the recorded one)."""
    index = _read_index(path)
    require(index is not None, StorageError,
            f"{path}: missing or invalid {_INDEX} (not a corpus snapshot)")
    entries = []
    pairs = []
    for rec in index["entries"]:
        mdir = os.path.join(path, rec["relpath"])
        problems = fmt.verify_matrix(mdir, level=verify)
        if problems:
            raise StorageError("; ".join(problems))
        signature = fmt.matrix_signature(mdir)
        if signature != rec["signature"]:
            raise StorageError(
                f"{mdir}: content address {signature} != index "
                f"{rec['signature']} (matrix replaced behind the index)")
        pairs.append((rec["name"], signature))
        entries.append(StoredEntry(
            name=rec["name"], group=rec["group"], kind=rec["kind"],
            spd=bool(rec["spd"]), tags=tuple(rec["tags"]), path=mdir,
            signature=signature, nrows=int(rec["nrows"]),
            ncols=int(rec["ncols"]), nnz=int(rec["nnz"])))
    spec = index["spec"]
    return CorpusSnapshot(path=os.path.abspath(path),
                          tier=spec.get("tier", "?"),
                          seed=int(spec.get("seed", 0)),
                          signature=_corpus_signature_of(pairs),
                          spec=spec, entries=tuple(entries))


def corpus_signature(path: str) -> str:
    """Recompute a snapshot's content address from its stored matrix
    headers (cheap: reads only the headers, not the arrays)."""
    index = _read_index(path)
    require(index is not None, StorageError,
            f"{path}: missing or invalid {_INDEX} (not a corpus snapshot)")
    pairs = []
    for rec in index["entries"]:
        mdir = os.path.join(path, rec["relpath"])
        pairs.append((rec["name"], fmt.matrix_signature(mdir)))
    return _corpus_signature_of(pairs)
