"""Performance subsystem: caching, profiling and scanning.

- :mod:`repro.perf.cache` — bounded LRU memos with hit/miss counters
  for CTPH digests, DNS resolution and pool lookups.
- :mod:`repro.perf.scan` — the compile-once multi-pattern scan kernel
  (Aho-Corasick literal matching, fused regex alternations, shared
  per-sample scan contexts).
- :mod:`repro.perf.profiler` — per-stage wall-time timers and the
  ``--profile`` stage-breakdown table.
"""

from repro.perf.cache import (
    CachingResolver,
    LruCache,
    cache_stats,
    cached_ctph,
    clear_caches,
    release_caches,
    render_cache_table,
)
from repro.perf.profiler import PipelineProfiler, StageTiming

__all__ = [
    "CachingResolver",
    "LruCache",
    "cache_stats",
    "cached_ctph",
    "clear_caches",
    "release_caches",
    "render_cache_table",
    "PipelineProfiler",
    "StageTiming",
    "AhoCorasick",
    "ScanContext",
    "ScanKernel",
    "scan_context",
    "scan_stats",
    "reset_scan_stats",
    "render_scan_stats",
]

_SCAN = ("AhoCorasick", "ScanContext", "ScanKernel", "scan_context",
         "scan_stats", "reset_scan_stats", "render_scan_stats")


def __getattr__(name):
    if name in _SCAN:
        from repro.perf import scan
        return getattr(scan, name)
    raise AttributeError(f"module 'repro.perf' has no attribute {name!r}")
