"""repro.obs — unified tracing, metrics and run-manifest layer.

One import point for the observability primitives every subsystem
shares:

* :func:`span` / :data:`TRACER` — nested, thread-safe span tracing
  that serialises to Chrome trace-event JSON (open ``trace.json`` in
  Perfetto or ``chrome://tracing``) and an append-only JSONL log.
  Disabled by default; the disabled path is a no-op fast path.
* :func:`stage` — a span whose elapsed seconds always land in the
  registry's ``<name>_seconds`` histogram, traced or not: the one
  clock of each sweep stage and of ``advisor.request``.
* :class:`MetricsRegistry` / :data:`REGISTRY` — Counter / Gauge /
  Histogram metrics with a snapshot → delta → merge protocol that the
  sweep engine uses to aggregate worker registries exactly once.
* :func:`collect` / :class:`RunManifest` — provenance (run id, git
  SHA, seed, corpus signature, config, package versions) written next
  to every sweep/bench artifact.
* :data:`CACHE_STATS_KEYS` — the one cache-statistics schema
  (``hits/misses/evictions/hit_rate/size_bytes``) every cache's
  ``stats`` exposes.
* :func:`metric` / :func:`bench_record` / :class:`BenchLedger` — the
  benchmark ledger (``BENCH_<tier>.json`` history) and the
  :func:`compare_ledgers` regression gate behind
  ``repro perf record/compare/trend``.
* :class:`SamplingProfiler` — the stdlib ``signal.setitimer`` frame
  sampler behind ``repro profile <command>``; attributes self-time to
  the span tree and emits collapsed flamegraph stacks.
* :func:`get_logger` / :func:`setup_cli_logging` — the CLI logging
  setup (``--quiet`` / ``--verbose``).

See ``docs/observability.md`` for naming conventions and workflows.
"""

from .cachestats import CACHE_STATS_KEYS, cache_stats, sizeof_value
from .log import get_logger, setup_cli_logging
from .manifest import RunManifest, collect
from .metrics import (REGISTRY, Counter, Gauge, Histogram, MetricsRegistry,
                      get_registry, log_buckets)
from .perf import (BenchLedger, bench_record, compare_ledgers,
                   compare_records, metric, run_builtin_bench)
from .profiler import ProfilerError, SamplingProfiler
from .trace import (TRACER, Tracer, disable, enable, is_enabled, span,
                    stage)

__all__ = [
    "CACHE_STATS_KEYS", "cache_stats", "sizeof_value", "get_logger",
    "setup_cli_logging", "RunManifest", "collect", "REGISTRY", "Counter",
    "Gauge", "Histogram", "MetricsRegistry", "get_registry", "log_buckets",
    "BenchLedger", "bench_record", "compare_ledgers", "compare_records",
    "metric", "run_builtin_bench", "ProfilerError", "SamplingProfiler",
    "TRACER", "Tracer", "disable", "enable", "is_enabled", "span",
    "stage",
]
