"""Unit tests for the repro.perf subsystem and its helpers."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.net import is_ipv4_literal
from repro.fuzzyhash import ctph
from repro.perf.cache import (
    CTPH_CACHE,
    CachingResolver,
    LruCache,
    cache_stats,
    cached_ctph,
    clear_caches,
)
from repro.perf.profiler import PipelineProfiler


# ---------------------------------------------------------------------------
# LruCache
# ---------------------------------------------------------------------------


class TestLruCache:
    def test_get_or_compute_memoises(self):
        cache = LruCache("t", maxsize=4)
        calls = []
        for _ in range(3):
            value = cache.get_or_compute("k", lambda: calls.append(1) or 42)
        assert value == 42
        assert len(calls) == 1
        assert cache.hits == 2 and cache.misses == 1

    def test_eviction_is_lru(self):
        cache = LruCache("t", maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh a; b becomes oldest
        cache.put("c", 3)
        assert cache.get("a") == 1
        assert cache.get("b") is None
        assert len(cache) == 2

    def test_none_values_are_cached(self):
        cache = LruCache("t")
        calls = []
        for _ in range(2):
            value = cache.get_or_compute(
                "k", lambda: calls.append(1) and None)
        assert value is None
        assert len(calls) == 1

    def test_clear_resets_counters(self):
        cache = LruCache("t")
        cache.put("a", 1)
        cache.get("a")
        cache.get("missing")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 0 and cache.misses == 0
        assert cache.hit_rate == 0.0

    def test_stats_shape(self):
        cache = LruCache("t")
        cache.get_or_compute("k", lambda: 1)
        cache.get("k")
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["size"] == 1
        assert stats["hit_rate"] == 0.5

    def test_rejects_bad_maxsize(self):
        with pytest.raises(ValueError):
            LruCache("t", maxsize=0)


# ---------------------------------------------------------------------------
# Content-keyed memos
# ---------------------------------------------------------------------------


class TestContentMemos:
    def setup_method(self):
        clear_caches()

    def teardown_method(self):
        clear_caches()

    def test_cached_ctph_matches_direct(self):
        data = b"some miner binary contents " * 64
        assert cached_ctph(data) == ctph.compute(data)
        assert CTPH_CACHE.hits == 0
        assert cached_ctph(data) == ctph.compute(data)
        assert CTPH_CACHE.hits == 1

    def test_cache_stats_covers_process_caches(self):
        import repro.perf.scan  # noqa: F401  (registers scan_context)
        stats = cache_stats()
        assert set(stats) >= {"ctph", "scan_context"}


# ---------------------------------------------------------------------------
# CachingResolver
# ---------------------------------------------------------------------------


class _CountingResolver:
    def __init__(self):
        self.calls = 0

    def resolve(self, name, when):
        self.calls += 1
        return (name, when)

    def cname_targets(self, name, when):
        return [name]


class TestCachingResolver:
    def test_resolution_is_memoised(self):
        inner = _CountingResolver()
        resolver = CachingResolver(inner)
        first = resolver.resolve("Pool.Example.COM", "2018-09-01")
        again = resolver.resolve("pool.example.com", "2018-09-01")
        assert first == again
        assert inner.calls == 1

    def test_distinct_dates_miss(self):
        inner = _CountingResolver()
        resolver = CachingResolver(inner)
        resolver.resolve("a.example", "2018-01-01")
        resolver.resolve("a.example", "2018-02-01")
        assert inner.calls == 2

    def test_cname_targets_delegates(self):
        resolver = CachingResolver(_CountingResolver())
        assert resolver.cname_targets("x.example", None) == ["x.example"]


# ---------------------------------------------------------------------------
# PipelineProfiler
# ---------------------------------------------------------------------------


class TestProfiler:
    def test_stage_records_wall_time(self):
        prof = PipelineProfiler()
        with prof.stage("work", items=10):
            pass
        timing = prof.stages["work"]
        assert timing.calls == 1 and timing.items == 10
        assert timing.wall_s >= 0.0
        assert prof.total_wall_s == timing.wall_s

    def test_repeat_stages_accumulate(self):
        prof = PipelineProfiler()
        prof.record("s", 0.5, items=5)
        prof.record("s", 0.5, items=5)
        assert prof.stages["s"].calls == 2
        assert prof.stages["s"].items == 10
        assert prof.stages["s"].items_per_s == 10.0

    def test_render_table_lists_stages_in_order(self):
        prof = PipelineProfiler()
        prof.record("first", 1.0, items=4)
        prof.record("second", 3.0)
        prof.count("events", 7)
        table = prof.render_table()
        assert table.index("first") < table.index("second")
        assert "75.0%" in table
        assert "events" in table and "7" in table

    def test_summary_maps_stage_to_wall(self):
        prof = PipelineProfiler()
        prof.record("a", 1.25)
        assert prof.summary() == {"a": 1.25}


# ---------------------------------------------------------------------------
# is_ipv4_literal
# ---------------------------------------------------------------------------


class TestIsIpv4Literal:
    @pytest.mark.parametrize("host", [
        "1.2.3.4", "0.0.0.0", "255.255.255.255", "198.51.100.17",
    ])
    def test_accepts_dotted_quads(self, host):
        assert is_ipv4_literal(host)

    @pytest.mark.parametrize("host", [
        "", "...", "1.2.3", "1.2.3.4.5", "1.2.3.999", "1.2.3.",
        ".1.2.3", "1..2.3", "a.b.c.d", "1.2.3.4a", "0001.2.3.4",
        "pool.minexmr.com",
    ])
    def test_rejects_malformed(self, host):
        assert not is_ipv4_literal(host)


# ---------------------------------------------------------------------------
# CTPH fast path vs pure-python reference
# ---------------------------------------------------------------------------


class TestCtphFastPath:
    @pytest.mark.parametrize("payload", [
        b"",
        b"short",
        b"x" * 64,
        bytes(range(256)) * 32,
        b"low entropy " * 500,
    ])
    def test_vectorised_path_matches_reference(self, payload):
        fast = ctph.compute(payload)
        totals = ctph._rolling_totals(payload)
        if totals is not None:
            reference = ctph._piecewise_signature(
                payload, fast.blocksize)
            assert fast.signature == reference

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=512), st.data())
    def test_low6_fold_equals_fnv_span(self, data, draw):
        start = draw.draw(st.integers(0, len(data)))
        end = draw.draw(st.integers(start, len(data)))
        pairs = ctph._byte_pairs(data)
        assert (ctph._fnv_low6(data, pairs, start, end)
                == ctph._fnv_span(data, start, end) % 64)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 9), st.integers(0, 1024), st.integers(1, 256),
           st.integers(0, 2**32))
    def test_compute_equals_pure_python_reference(self, kib, extra,
                                                  alphabet, seed):
        """0-10 KiB inputs; low ``alphabet`` sizes give long blocks and
        short signatures, so the search shrinks the block size too."""
        rng = random.Random(seed)
        payload = bytes(rng.choices(range(alphabet), k=kib * 1024 + extra))
        assert ctph.compute(payload) == _reference_ctph(payload)


def _reference_ctph(data: bytes) -> "ctph.FuzzyHash":
    """``compute`` on the pure-Python per-byte path only."""
    blocksize = 3
    while blocksize * 64 < len(data):
        blocksize *= 2
    signature = ctph._piecewise_signature(data, blocksize)
    while len(signature) > 64:
        blocksize *= 2
        signature = ctph._piecewise_signature(data, blocksize)
    while blocksize > 3 and len(signature) < 16:
        candidate = ctph._piecewise_signature(data, blocksize // 2)
        if len(candidate) > 64:
            break
        blocksize //= 2
        signature = candidate
    double = ctph._piecewise_signature(data, blocksize * 2)
    return ctph.FuzzyHash(blocksize, signature[:64], double[:64])
