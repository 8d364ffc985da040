"""Sweep results and the persistent ordering cache.

Computing an ordering is orders of magnitude more expensive than
evaluating the performance model, and the same (matrix, ordering,
part-count) triple recurs across the eight architectures and the two
kernels.  :class:`OrderingCache` memoises permutations in memory and
optionally on disk (one checksummed ``.perm`` file per entry), so a
full 8-architecture sweep costs one ordering pass.

Execution itself lives in :class:`~repro.harness.engine.SweepEngine`:
process-pool fan-out, JSONL checkpointing with resume, per-cell
timeouts with bounded retries, and a metrics artifact.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import zlib
from dataclasses import dataclass, field

import numpy as np

from ..errors import PermutationError
from ..machine.bench import MeasurementRecord
from ..matrix.csr import CSRMatrix
from ..obs import cachestats
from ..reorder import compute_ordering
from ..reorder.perm import OrderingResult

#: Suffix of an on-disk ordering-cache entry.
ENTRY_SUFFIX = ".perm"
#: Upper bound on an entry's JSON header; a larger length field marks
#: a corrupt entry before anything is allocated for it.
MAX_HEADER_BYTES = 4096
_LEN = 4          # little-endian uint32 header length
_INT = "<i8"      # body: n little-endian int64


def encode_entry(result: OrderingResult) -> bytes:
    """Serialise one cache entry: a 4-byte little-endian header
    length, a JSON header ``{algorithm, symmetric, seconds, n, crc32}``,
    then the permutation as ``n`` little-endian int64."""
    body = np.ascontiguousarray(result.perm, dtype=_INT).tobytes()
    header = json.dumps({
        "algorithm": result.algorithm, "symmetric": bool(result.symmetric),
        "seconds": float(result.seconds), "n": result.n,
        "crc32": zlib.crc32(body)}).encode()
    return len(header).to_bytes(_LEN, "little") + header + body


def decode_entry(data: bytes, nrows: int,
                 ordering: str) -> OrderingResult | None:
    """Validate and decode one cache entry read back from disk.

    The entry must describe an ``ordering`` permutation of an
    ``nrows``-row matrix, with a finite non-negative time and a body of
    exactly ``8 * n`` bytes whose CRC-32 matches the header; the
    permutation must be a bijection.  Returns ``None`` on any mismatch
    (a miss: the caller recomputes and overwrites the entry).
    """
    hlen = int.from_bytes(data[:_LEN], "little")
    if len(data) < _LEN or hlen > MAX_HEADER_BYTES \
            or _LEN + hlen > len(data):
        return None
    try:
        header = json.loads(data[_LEN:_LEN + hlen])
    except ValueError:              # bad JSON or bad UTF-8
        return None
    if not isinstance(header, dict):
        return None
    n, seconds = header.get("n"), header.get("seconds")
    if (type(n) is not int or n != nrows
            or header.get("algorithm") != ordering
            or type(seconds) not in (int, float)
            or not math.isfinite(seconds) or seconds < 0
            or type(header.get("symmetric")) is not bool):
        return None
    body = data[_LEN + hlen:]
    if len(body) != 8 * n or zlib.crc32(body) != header.get("crc32"):
        return None
    try:
        return OrderingResult(algorithm=ordering,
                              perm=np.frombuffer(body, dtype=_INT),
                              symmetric=header["symmetric"],
                              seconds=float(seconds))
    except PermutationError:
        return None


class OrderingCache:
    """Memoises (matrix, ordering, nparts, seed) → OrderingResult.

    ``path`` enables disk persistence: each cached permutation is stored
    in one ``<key>.perm`` file with its timing metadata (see
    :func:`encode_entry`), written atomically; an entry that fails
    :func:`decode_entry` is a miss.  Keys fold in the matrix
    name, its shape and nnz, a CRC of the sparsity structure, and the
    seed, so two corpora that reuse a name — or regenerate it with a
    different seed or structure — can never alias to a stale
    permutation.

    ``stats`` exposes hit/miss counters in the shared cache-stats
    schema (:data:`repro.obs.CACHE_STATS_KEYS` —
    ``hits/misses/evictions/hit_rate/size_bytes``) plus the cache's
    own extras (``disk_hits``, ``requests``), so downstream consumers
    (the advisor's serving cache, the benchmark harness, the sweep
    engine) observe every cache the same way.  ``hits`` counts
    in-memory hits; ``hit_rate`` counts both storage levels.
    """

    def __init__(self, path: str | None = None) -> None:
        self.path = path
        self._memory: dict = {}
        #: bytes of every permutation in ``_memory``, kept as entries
        #: arrive so ``stats`` never walks the cache
        self._resident = 0
        self._hits = 0
        self._disk_hits = 0
        self._misses = 0
        if path is not None:
            os.makedirs(path, exist_ok=True)

    @property
    def stats(self) -> dict:
        """Shared-schema counters plus ``disk_hits``/``requests``.

        ``hit_rate`` covers both storage levels, so the shared helper
        derives it from the combined hit count; ``hits`` itself stays
        memory-only (the distinction the sweep report prints).  The
        zero-access guard lives in
        :func:`repro.obs.cachestats.cache_stats`, once, for every cache.

        Every cached permutation is a private heap copy (a disk entry
        is read into bytes, and :class:`OrderingResult` copies its
        permutation), so all of it is ``size_bytes`` and
        ``mapped_bytes`` is 0.  Both are O(1): the resident count is
        kept as entries arrive.
        """
        total = self._hits + self._disk_hits + self._misses
        stats = cachestats.cache_stats(
            hits=self._hits + self._disk_hits, misses=self._misses,
            evictions=0,             # unbounded: nothing is ever dropped
            size_bytes=self._resident,
            disk_hits=self._disk_hits, requests=total)
        stats["hits"] = self._hits
        return stats

    @staticmethod
    def _fingerprint(a: CSRMatrix) -> int:
        """A cheap CRC of the sparsity structure (not the values —
        orderings are structural).  Guards against two same-shaped,
        same-nnz matrices sharing a name across corpora."""
        crc = zlib.crc32(np.ascontiguousarray(
            a.rowptr, dtype=np.int64).tobytes())
        return zlib.crc32(np.ascontiguousarray(
            a.colidx, dtype=np.int64).tobytes(), crc)

    @classmethod
    def _key(cls, a: CSRMatrix, matrix_name: str, ordering: str,
             nparts: int, seed=0) -> str:
        # Only GP depends on nparts; normalise all other orderings so
        # they share cache entries.  Shape, nnz, the structure CRC and
        # the seed are part of the key so regenerating a named matrix
        # at a different scale, with different structure, or under a
        # different seed can never hit a stale permutation.
        if ordering != "GP":
            nparts = 0
        seed_tag = seed if isinstance(seed, int) else "rng"
        return (f"{matrix_name}__{a.nrows}x{a.ncols}_{a.nnz}"
                f"_{cls._fingerprint(a):08x}__{ordering}__{nparts}"
                f"__s{seed_tag}")

    def get(self, a: CSRMatrix, matrix_name: str, ordering: str,
            nparts: int = 64, seed=0) -> OrderingResult:
        """Return the cached ordering, computing it on a miss."""
        key = self._key(a, matrix_name, ordering, nparts, seed)
        if key in self._memory:
            self._hits += 1
            return self._memory[key]
        if self.path is not None:
            result = self._load(os.path.join(self.path, key + ENTRY_SUFFIX),
                                a.nrows, ordering)
            if result is not None:
                self._keep(key, result)
                self._disk_hits += 1
                return result
        self._misses += 1
        result = compute_ordering(a, ordering, nparts=nparts, seed=seed)
        return self._store(key, result)

    def _keep(self, key: str, result: OrderingResult) -> None:
        """Hold ``result`` under a new ``key``, counting its bytes."""
        self._memory[key] = result
        self._resident += result.perm.nbytes

    @staticmethod
    def _load(f: str, nrows: int, ordering: str) -> OrderingResult | None:
        """Read one disk entry; a missing, corrupt or mismatched file is
        a miss (it will be recomputed and overwritten), not a crash."""
        try:
            with open(f, "rb") as fh:
                # one byte past the largest valid entry: an oversized
                # file is rejected without being read whole
                data = fh.read(_LEN + MAX_HEADER_BYTES + 8 * nrows + 1)
        except OSError:
            return None
        return decode_entry(data, nrows, ordering)

    def _store(self, key: str, result: OrderingResult) -> OrderingResult:
        self._keep(key, result)
        if self.path is not None:
            # write-then-rename: a killed writer leaves a stray temp
            # file, never a torn entry
            fd, tmp = tempfile.mkstemp(dir=self.path, prefix=key,
                                       suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(encode_entry(result))
                os.replace(tmp, os.path.join(self.path, key + ENTRY_SUFFIX))
            except BaseException:
                os.unlink(tmp)
                raise
        return result


@dataclass
class SweepResult:
    """All measurement records of a sweep, with lookup helpers.

    ``failed`` holds the structured :class:`~repro.harness.engine.
    FailedCell` rows of cells the engine could not complete; consumers
    that replay sweeps (the advisor dataset builder, the artifact
    writer) must treat a missing record as "that cell failed", not as
    a bug.
    """

    records: list = field(default_factory=list)
    failed: list = field(default_factory=list)

    def add(self, rec: MeasurementRecord) -> None:
        self.records.append(rec)

    @property
    def complete(self) -> bool:
        return not self.failed

    def lookup(self, matrix: str, ordering: str, kernel: str,
               architecture: str) -> MeasurementRecord:
        for r in self.records:
            if (r.matrix == matrix and r.ordering == ordering
                    and r.kernel == kernel
                    and r.architecture == architecture):
                return r
        raise KeyError((matrix, ordering, kernel, architecture))

    def speedups(self, ordering: str, kernel: str,
                 architecture: str) -> np.ndarray:
        """Speedup over 'original' for every matrix, in corpus order."""
        base = {}
        reordered = {}
        for r in self.records:
            if r.kernel != kernel or r.architecture != architecture:
                continue
            if r.ordering == "original":
                base[r.matrix] = r.gflops_max
            elif r.ordering == ordering:
                reordered[r.matrix] = r.gflops_max
        names = [m for m in base if m in reordered]
        return np.array([reordered[m] / base[m] for m in names])

    def matrices(self) -> list:
        seen = []
        for r in self.records:
            if r.matrix not in seen:
                seen.append(r.matrix)
        return seen

