"""Streaming corpus: chunked generation reproduces the batch world.

``SandboxReport`` equality falls back to object identity on its
``flows`` field (``FlowLog`` defines no ``__eq__``), so sandbox reports
from two independent generator runs are compared field-wise here, with
flows compared as ``FlowRecord`` lists.
"""

import dataclasses
import threading
import time

import pytest

from repro.corpus.generator import generate_world
from repro.corpus.model import ScenarioConfig
from repro.scale.stream import (
    ChunkPrefetcher,
    StreamingCorpus,
    materialize_stream,
)

_CONFIG = ScenarioConfig(seed=1, scale=0.01)


def _ha_reports_equal(a, b):
    if a is None or b is None:
        return a is b
    for f in dataclasses.fields(a):
        if f.name == "flows":
            if list(a.flows) != list(b.flows):
                return False
        elif getattr(a, f.name) != getattr(b, f.name):
            return False
    return True


@pytest.fixture(scope="module")
def streamed_world():
    return materialize_stream(_CONFIG, chunk_samples=512)


class TestMaterializeStream:
    def test_same_samples(self, small_world, streamed_world):
        batch = {s.sha256: s for s in small_world.samples}
        stream = {s.sha256: s for s in streamed_world.samples}
        assert stream == batch

    def test_same_vt_reports(self, small_world, streamed_world):
        batch = {r.sha256: r for r in small_world.vt.reports()}
        stream = {r.sha256: r for r in streamed_world.vt.reports()}
        assert stream == batch

    def test_same_ha_reports(self, small_world, streamed_world):
        shas = {s.sha256 for s in small_world.samples}
        batch = {sha: small_world.ha.get_report(sha) for sha in shas
                 if sha in small_world.ha}
        stream = {sha: streamed_world.ha.get_report(sha) for sha in shas
                  if sha in streamed_world.ha}
        assert set(stream) == set(batch)
        for sha, report in batch.items():
            assert _ha_reports_equal(stream[sha], report), sha

    def test_same_ground_truth(self, small_world, streamed_world):
        assert streamed_world.ground_truth == small_world.ground_truth

    def test_same_infrastructure_surface(self, small_world,
                                         streamed_world):
        assert (sorted(streamed_world.pool_directory.names())
                == sorted(small_world.pool_directory.names()))
        assert (streamed_world.stock_catalog.whitelist_hashes()
                == small_world.stock_catalog.whitelist_hashes())


class TestStreamingCorpus:
    def test_chunks_bounded_disjoint_complete(self, small_world):
        corpus = StreamingCorpus(_CONFIG, chunk_samples=256)
        seen = []
        for chunk in corpus.chunks():
            assert 0 < len(chunk) <= 256
            seen.extend(s.sha256 for s in chunk.samples)
        assert len(seen) == len(set(seen))
        assert set(seen) == {s.sha256 for s in small_world.samples}

    def test_chunks_carry_their_own_intel(self):
        corpus = StreamingCorpus(_CONFIG, chunk_samples=256)
        for chunk in corpus.chunks():
            shas = {s.sha256 for s in chunk.samples}
            # every sample arrives with its VT report, in-chunk
            assert set(chunk.reports) == shas
            # HA reports (sparse) only ever describe in-chunk samples
            assert set(chunk.ha_reports) <= shas

    def test_deterministic_across_instances(self):
        a = [[s.sha256 for s in chunk.samples]
             for chunk in StreamingCorpus(_CONFIG, 512).chunks()]
        b = [[s.sha256 for s in chunk.samples]
             for chunk in StreamingCorpus(_CONFIG, 512).chunks()]
        assert a == b

    def test_chunk_size_does_not_change_the_stream(self):
        coarse = [s.sha256
                  for chunk in StreamingCorpus(_CONFIG, 1024).chunks()
                  for s in chunk.samples]
        fine = [s.sha256
                for chunk in StreamingCorpus(_CONFIG, 128).chunks()
                for s in chunk.samples]
        assert coarse == fine

    def test_generator_never_accumulates_samples(self):
        corpus = StreamingCorpus(_CONFIG, chunk_samples=256)
        for _ in corpus.chunks():
            # the generator's in-memory world stays empty while streaming
            assert corpus._generator.samples == []

    def test_second_chunks_call_raises(self):
        """The stream draws from the corpus's generator: a second
        stream would be a different world, so it is refused."""
        corpus = StreamingCorpus(ScenarioConfig(seed=2019, scale=0.004),
                                 chunk_samples=512)
        first = [s.sha256 for chunk in corpus.chunks()
                 for s in chunk.samples]
        assert len(first) == len(set(first)) > 0
        with pytest.raises(RuntimeError, match="once"):
            corpus.chunks()

    def test_keep_sample_hashes_false_drops_ground_truth_lists(self):
        corpus = StreamingCorpus(_CONFIG, chunk_samples=512,
                                 keep_sample_hashes=False)
        for _ in corpus.chunks():
            pass
        tracked = [c for c in corpus.ground_truth
                   if c.sample_hashes and c.fixed_sample_count is None]
        # non-fixture campaigns shed their per-sample hash lists
        assert len(tracked) < len(corpus.ground_truth) / 2


class TestChunkPrefetcher:
    def test_preserves_order_and_content(self):
        items = list(range(100))
        assert list(ChunkPrefetcher(iter(items), depth=2)) == items

    def test_prefetched_chunks_equal_eager_chunks(self):
        eager = [[s.sha256 for s in chunk.samples]
                 for chunk in StreamingCorpus(_CONFIG, 256).chunks()]
        fetched = [[s.sha256 for s in chunk.samples]
                   for chunk in ChunkPrefetcher(
                       StreamingCorpus(_CONFIG, 256).chunks(), depth=2)]
        assert fetched == eager

    def test_rejects_zero_depth(self):
        with pytest.raises(ValueError):
            ChunkPrefetcher(iter([]), depth=0)

    def test_producer_exception_relayed_in_position(self):
        def faulty():
            yield 1
            yield 2
            raise RuntimeError("generator died")

        prefetcher = ChunkPrefetcher(faulty(), depth=2)
        assert next(prefetcher) == 1
        assert next(prefetcher) == 2
        with pytest.raises(RuntimeError, match="generator died"):
            next(prefetcher)
        # a failed stream is terminated, not resumable
        with pytest.raises(StopIteration):
            next(prefetcher)

    def test_close_releases_blocked_producer(self):
        produced = []

        def endless():
            i = 0
            while True:
                produced.append(i)
                yield i
                i += 1

        prefetcher = ChunkPrefetcher(endless(), depth=2)
        assert next(prefetcher) == 0
        prefetcher.close()
        assert not prefetcher._thread.is_alive()
        # producer stopped near the depth bound, not at the consumer's pace
        assert len(produced) <= 8

    def test_context_manager_closes(self):
        with ChunkPrefetcher(iter(range(1000)), depth=2) as prefetcher:
            assert next(prefetcher) == 0
        assert not prefetcher._thread.is_alive()
        assert threading.active_count() >= 1  # no lingering producer

    def test_bounded_readahead(self):
        """The producer never runs more than depth+1 items ahead."""
        pulled = []

        def tracking():
            for i in range(50):
                pulled.append(i)
                yield i

        prefetcher = ChunkPrefetcher(tracking(), depth=2)
        time.sleep(0.2)  # give the producer every chance to overrun
        assert len(pulled) <= 3  # queue depth 2 + one in-hand item
        assert list(prefetcher) == list(range(50))
