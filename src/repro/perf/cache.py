"""Substrate caches: LRU memos with hit/miss counters.

The pipeline's hot paths recompute pure functions of immutable inputs —
CTPH digests of raw binaries and DNS/CNAME resolutions.  This module
provides one bounded LRU implementation plus the one process-wide,
content-keyed memo, ``ctph``, so work repeated within one run is not
redone.  A run drops the memo's entries when it returns
(``release_caches()``), so nothing of one world outlives the run over
it.  Every cache exposes hit/miss counters; ``cache_stats()`` reports
the process-wide memo's for the profiler and the scaling bench.
"""

import threading
from collections import OrderedDict
from typing import Callable, Dict, Iterable, List, Optional

from repro.fuzzyhash.ctph import FuzzyHash, compute, compute_many

_K = object  # documentation alias: keys must be hashable


class LruCache:
    """A bounded LRU memo with hit/miss accounting.

    Keys must be hashable; values are whatever the compute callable
    returns.  Thread-safe: the chunk prefetcher's thread may run
    beside the pipeline that populates entries.
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
# The process-wide content-keyed memo
# --------------------------------------------------------------------------

#: CTPH digests keyed by binary content (bytes hash their content once
#: and cache it, so repeat lookups are cheap).
CTPH_CACHE = LruCache("ctph", maxsize=8192)


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
    """Counters of the process-wide memo, by cache name."""
    return {CTPH_CACHE.name: CTPH_CACHE.stats()}


def clear_caches() -> None:
    """Reset the process-wide memo (tests and benches isolate runs)."""
    CTPH_CACHE.clear()


def release_caches() -> None:
    """Drop the process-wide memo's entries, keeping its counters.

    Every measurement run calls this when it returns.  The memo is
    keyed by the run's sample bytes, so entries left behind would keep
    the binaries of a world the caller has let go, and the next world
    would be built around them: peak RSS would then grow with the
    number of runs a process makes instead of staying at one run's
    peak.
    """
    CTPH_CACHE.release()


def render_cache_table() -> str:
    """The process-wide memo's counters as an aligned text table."""
    header = (f"{'cache':<16} {'hits':>10} {'misses':>10} "
              f"{'size':>8} {'hit rate':>9}")
    stats = CTPH_CACHE.stats()
    return "\n".join([
        header, "-" * len(header),
        f"{CTPH_CACHE.name:<16} {stats['hits']:>10} {stats['misses']:>10} "
        f"{stats['size']:>8} {stats['hit_rate']:>9.1%}"])


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
