"""Out-of-core CSR storage: memmap matrices and corpus snapshots.

* :mod:`repro.storage.format` — the chunked on-disk CSR format
  (versioned header, per-array CRC32s, atomic directory commit) and
  the read-only ``np.memmap`` attach path sweep workers use for
  snapshot-backed entries.
* :mod:`repro.storage.snapshot` — content-addressed corpus snapshots:
  deterministic build/reuse/quarantine/regenerate of whole tiers,
  including the streamed ``xl`` (10⁷–10⁸ nnz) tier that never exists
  in RAM.

See ``docs/storage.md`` for the format, how sweeps attach stored
matrices and the RSS-budgeting model.
"""

from .format import (MatrixWriter, attach_cache_stats, attach_matrix,
                     attached_count, detach_all, header_signature,
                     matrix_signature, open_matrix, verify_matrix,
                     write_matrix)
from .snapshot import (CorpusSnapshot, StoredEntry, corpus_signature,
                       ensure_corpus_snapshot, open_corpus_snapshot)

__all__ = [
    "MatrixWriter", "write_matrix", "open_matrix", "verify_matrix",
    "attach_matrix", "detach_all", "attached_count",
    "attach_cache_stats", "header_signature", "matrix_signature",
    "StoredEntry", "CorpusSnapshot", "ensure_corpus_snapshot",
    "open_corpus_snapshot", "corpus_signature",
]
