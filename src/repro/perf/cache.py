"""Substrate caches: LRU memos with hit/miss counters.

The pipeline's hot paths recompute pure functions of immutable inputs —
CTPH digests of raw binaries, DNS/CNAME resolutions, and pool-directory
suffix walks.  This module provides one bounded LRU implementation
plus process-wide memo instances for the content-keyed substrates, so
work repeated within one run is not redone.  A run drops the memos'
entries when it returns (``release_caches()``), so nothing of one
world outlives the run over it.  Every cache exposes hit/miss
counters; ``cache_stats()`` aggregates them for the profiler and the
scaling bench.
"""

import threading
from collections import OrderedDict
from typing import Callable, Dict, Iterable, List, Optional

from repro.fuzzyhash.ctph import FuzzyHash, compute, compute_many

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

    def release(self) -> None:
        """Drop all entries but keep the counters."""
        with self._lock:
            self._data.clear()

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

#: Caches registered by other perf modules (the scan-context memo in
#: :mod:`repro.perf.scan`) so ``cache_stats`` / ``clear_caches`` cover
#: them without import cycles.
_EXTRA_CACHES: List[LruCache] = []


def register_cache(cache: LruCache) -> LruCache:
    """Include ``cache`` in process-wide stats/clearing; returns it."""
    _EXTRA_CACHES.append(cache)
    return cache


def _all_caches() -> List[LruCache]:
    return [CTPH_CACHE, *_EXTRA_CACHES]


def cached_ctph(data: bytes) -> FuzzyHash:
    """CTPH of ``data``, memoised by content."""
    key = bytes(data)
    return CTPH_CACHE.get_or_compute(key, lambda: compute(key))


def cached_ctph_many(datas: Iterable[bytes]) -> List[FuzzyHash]:
    """CTPH of every input, memoised by content: one lookup per input
    (a hit or a miss, as :func:`cached_ctph` counts it), then every
    miss hashed in one :func:`~repro.fuzzyhash.ctph.compute_many` call
    and stored."""
    keys = [bytes(data) for data in datas]
    found = [CTPH_CACHE.get(key) for key in keys]
    missing = [key for key, value in zip(keys, found) if value is None]
    computed = iter(compute_many(missing))
    out: List[FuzzyHash] = []
    for key, value in zip(keys, found):
        if value is None:
            value = next(computed)
            CTPH_CACHE.put(key, value)
        out.append(value)
    return out


def cache_stats() -> Dict[str, Dict[str, float]]:
    """Counters for every process-wide cache, by cache name."""
    return {cache.name: cache.stats() for cache in _all_caches()}


def clear_caches() -> None:
    """Reset the process-wide memos (tests and benches isolate runs)."""
    for cache in _all_caches():
        cache.clear()


def release_caches() -> None:
    """Drop the process-wide memos' entries, keeping their counters.

    Every measurement run calls this when it returns.  The memos are
    keyed by the run's sample bytes, so entries left behind would keep
    the binaries and scan views of a world the caller has let go,
    about 12 MiB at the benchmark scale, and the next world would be
    built around them: peak RSS would then grow with the number of
    runs a process makes instead of staying at one run's peak.
    """
    for cache in _all_caches():
        cache.release()


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
