"""Substrate caches: LRU memos with hit/miss counters.

The pipeline's hot paths recompute pure functions of immutable inputs —
CTPH digests and entropy of raw binaries, DNS/CNAME resolutions, and
pool-directory suffix walks.  This module provides one bounded LRU
implementation plus process-wide memo instances for the content-keyed
substrates, so repeated work (ablation reruns, serial-vs-parallel
comparisons, bench iterations, the stock-tool catalog index) is never
redone.  Every cache exposes hit/miss counters; ``cache_stats()``
aggregates them for the profiler and the scaling bench.
"""

import threading
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

from repro.binfmt.entropy import shannon_entropy
from repro.binfmt.packers import identify_packer, unpack
from repro.common.errors import BinaryFormatError
from repro.fuzzyhash.ctph import FuzzyHash, compute

_K = object  # documentation alias: keys must be hashable


class LruCache:
    """A bounded LRU memo with hit/miss accounting.

    Keys must be hashable; values are whatever the compute callable
    returns.  Thread-safe: worker threads and the profiler may read
    counters while the pipeline populates entries.
    """

    def __init__(self, name: str, maxsize: int = 4096) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.name = name
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._data: "OrderedDict" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key) -> Optional[object]:
        """The cached value, or None (which is never cached itself)."""
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self.hits += 1
                return self._data[key]
            self.misses += 1
            return None

    def put(self, key, value) -> None:
        """Insert ``key`` -> ``value``, evicting the oldest entry."""
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)

    def get_or_compute(self, key, fn: Callable[[], object]):
        """Memoised call: return cached value or compute-and-store."""
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self.hits += 1
                return self._data[key]
            self.misses += 1
        value = fn()
        self.put(key, value)
        return value

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        with self._lock:
            self._data.clear()
            self.hits = 0
            self.misses = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        """Counters snapshot: hits, misses, size and hit rate."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": len(self._data),
            "hit_rate": round(self.hit_rate, 4),
        }


# --------------------------------------------------------------------------
# Process-wide content-keyed memos
# --------------------------------------------------------------------------

#: CTPH digests keyed by binary content (bytes hash their content once
#: and cache it, so repeat lookups are cheap).
CTPH_CACHE = LruCache("ctph", maxsize=8192)

#: Shannon entropy keyed by binary content.
ENTROPY_CACHE = LruCache("entropy", maxsize=8192)

#: ``(scannable_bytes, unpacked)`` keyed by raw binary content, so the
#: sanity checker and the static analyzer share one ``unpack()`` walk
#: per sample instead of each reversing the same packer independently.
UNPACK_CACHE = LruCache("unpack", maxsize=4096)

#: Caches registered by other perf modules (the scan-context memo in
#: :mod:`repro.perf.scan`) so ``cache_stats`` / ``clear_caches`` cover
#: them without import cycles.
_EXTRA_CACHES: List[LruCache] = []


def register_cache(cache: LruCache) -> LruCache:
    """Include ``cache`` in process-wide stats/clearing; returns it."""
    _EXTRA_CACHES.append(cache)
    return cache


def _all_caches() -> List[LruCache]:
    return [CTPH_CACHE, ENTROPY_CACHE, UNPACK_CACHE, *_EXTRA_CACHES]


def cached_ctph(data: bytes) -> FuzzyHash:
    """CTPH of ``data``, memoised by content."""
    key = bytes(data)
    return CTPH_CACHE.get_or_compute(key, lambda: compute(key))


def cached_entropy(data: bytes) -> float:
    """Shannon entropy of ``data``, memoised by content."""
    key = bytes(data)
    return ENTROPY_CACHE.get_or_compute(key, lambda: shannon_entropy(key))


def cached_unpack(raw: bytes) -> Tuple[bytes, bool]:
    """``(scannable_bytes, unpacked)`` for ``raw``, memoised by content.

    Mirrors what sanity's ``_scannable_bytes`` and the static analyzer
    each did separately: reverse a fingerprinted packer when possible,
    fall back to the raw bytes for crypters / corrupt payloads.  The
    flag is True only when a packer was actually reversed.
    """
    key = bytes(raw)

    def compute_unpack() -> Tuple[bytes, bool]:
        if identify_packer(key) is None:
            return (key, False)
        try:
            return (unpack(key), True)
        except BinaryFormatError:
            return (key, False)

    return UNPACK_CACHE.get_or_compute(key, compute_unpack)


def cache_stats() -> Dict[str, Dict[str, float]]:
    """Counters for every process-wide cache, by cache name."""
    return {cache.name: cache.stats() for cache in _all_caches()}


def clear_caches() -> None:
    """Reset the process-wide memos (tests and benches isolate runs)."""
    for cache in _all_caches():
        cache.clear()


def render_cache_table() -> str:
    """The cache hit/miss counters as an aligned text table."""
    header = (f"{'cache':<16} {'hits':>10} {'misses':>10} "
              f"{'size':>8} {'hit rate':>9}")
    lines = [header, "-" * len(header)]
    for cache in _all_caches():
        stats = cache.stats()
        lines.append(
            f"{cache.name:<16} {stats['hits']:>10} {stats['misses']:>10} "
            f"{stats['size']:>8} {stats['hit_rate']:>9.1%}")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Resolver memo
# --------------------------------------------------------------------------


class CachingResolver:
    """LRU-memoised facade over :class:`repro.netsim.dns.Resolver`.

    Resolution is a pure function of (name, date) for a fixed zone, and
    the pipeline resolves the same pool/alias domains for thousands of
    samples, so a small memo removes almost all repeat walks.
    """

    def __init__(self, resolver, maxsize: int = 4096) -> None:
        self._resolver = resolver
        self.cache = LruCache("dns_resolve", maxsize=maxsize)

    def resolve(self, name: str, when):
        """Memoised ``Resolver.resolve`` (keyed by lowercase name + date)."""
        key = (name.lower(), when)
        return self.cache.get_or_compute(
            key, lambda: self._resolver.resolve(name, when))

    def cname_targets(self, name: str, when) -> List[str]:
        """Delegate CNAME-chain lookups to the wrapped resolver."""
        return self._resolver.cname_targets(name, when)
