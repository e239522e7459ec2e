"""The synthetic corpus as a bounded-memory chunk stream.

:class:`StreamingCorpus` is the scale path's view of
:class:`~repro.corpus.generator.EcosystemGenerator`: it builds the
campaign-level *skeleton* (ground truth, DNS, catalogs, pool payment
ledgers — a few MB regardless of scale) and then yields samples in
deterministic :class:`~repro.corpus.model.SampleChunk` batches, each
carrying exactly the VT/HA intel for its own samples.  Nothing retains
the chunks, so generating a million samples costs the memory of one
chunk.

Equality with the batch world is exact (not statistical): per-sample
intel draws from position-independent ``intel:{sha}`` RNG substreams,
so the union of chunks reproduces :func:`generate_world`'s samples and
reports sha-for-sha — :func:`materialize_stream` rebuilds a full
:class:`~repro.corpus.model.SyntheticWorld` from the stream and the
equivalence suite asserts it equals the batch one.
"""

import queue
import threading
from typing import Iterable, Iterator, List, Optional, TypeVar

from repro.corpus.generator import EcosystemGenerator
from repro.corpus.model import (
    SampleChunk,
    SampleRecord,
    ScenarioConfig,
    SyntheticWorld,
)
from repro.forums.corpus import ForumCorpus, generate_forum_corpus

__all__ = ["ChunkPrefetcher", "StreamingCorpus", "materialize_stream"]

_T = TypeVar("_T")


class ChunkPrefetcher(Iterator[_T]):
    """Bounded producer/consumer wrapper over a chunk iterator.

    A daemon thread drives the wrapped iterator and parks results in a
    queue of depth ``depth``, so generating chunk N+1 overlaps with the
    consumer's analysis of chunk N instead of serialising with it.
    Items come out in exactly the order the iterator produced them —
    one producer, one FIFO queue — so a prefetched stream is
    element-for-element equal to the eager one; only the timing
    changes.

    A producer-side exception is re-raised at the consumer's next
    ``next()``, at the position it occurred.  ``close()`` stops the
    producer early (consumers abandoning the stream mid-way must call
    it, or use the context-manager form, so the thread does not linger
    blocked on a full queue).
    """

    #: queue sentinel marking normal exhaustion.
    _DONE = object()

    def __init__(self, iterable: Iterable[_T], depth: int = 2) -> None:
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self._iterator = iter(iterable)
        self._queue: "queue.Queue" = queue.Queue(maxsize=depth)
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._produce, daemon=True, name="chunk-prefetch")
        self._thread.start()

    def _produce(self) -> None:
        try:
            for item in self._iterator:
                self._put((False, item))
                if self._stop.is_set():
                    return
            self._put((False, self._DONE))
        except BaseException as exc:  # noqa: BLE001 — relayed to consumer
            self._put((True, exc))

    def _put(self, payload) -> None:
        """Queue ``payload`` without deadlocking against close()."""
        while not self._stop.is_set():
            try:
                self._queue.put(payload, timeout=0.1)
                return
            except queue.Full:
                continue

    def __iter__(self) -> "ChunkPrefetcher[_T]":
        return self

    def __next__(self) -> _T:
        if self._stop.is_set():
            raise StopIteration
        failed, item = self._queue.get()
        if failed:
            self.close()
            raise item
        if item is self._DONE:
            self.close()
            raise StopIteration
        return item

    def close(self) -> None:
        """Stop the producer and release its thread."""
        self._stop.set()
        # unblock a producer parked on a full queue
        while True:
            try:
                self._queue.get_nowait()
            except queue.Empty:
                break
        self._thread.join(timeout=5)

    def __enter__(self) -> "ChunkPrefetcher[_T]":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class StreamingCorpus:
    """Skeleton services plus a chunked sample iterator.

    ``keep_sample_hashes=False`` drops per-campaign sample-hash lists
    from ground truth as campaigns finish emitting (they are the one
    skeleton structure that grows with sample count); campaigns tagged
    as known operations keep theirs, since hash IoCs feed the OSINT
    feeds either way.
    """

    def __init__(self, config: Optional[ScenarioConfig] = None,
                 chunk_samples: int = 4096,
                 keep_sample_hashes: bool = True) -> None:
        self.config = config or ScenarioConfig()
        self.chunk_samples = chunk_samples
        self.keep_sample_hashes = keep_sample_hashes
        self._generator = EcosystemGenerator(self.config)
        self._generator.build_skeleton()
        self._streamed = False

    # -- skeleton services (what build_analysis_components needs) ----------

    @property
    def vt(self):
        return self._generator.vt

    @property
    def ha(self):
        return self._generator.ha

    @property
    def osint(self):
        return self._generator.osint

    @property
    def pool_directory(self):
        return self._generator.pools

    @property
    def dns_zone(self):
        return self._generator.dns

    @property
    def resolver(self):
        return self._generator.resolver

    @property
    def passive_dns(self):
        return self._generator.passive_dns

    @property
    def stock_catalog(self):
        return self._generator.stock

    @property
    def ground_truth(self):
        return self._generator.campaigns

    def forum_corpus(self) -> ForumCorpus:
        """The forum corpus, built on demand (batch-identical: the
        ``forums`` substream is position-independent)."""
        return generate_forum_corpus(
            self._generator.rng.substream("forums"),
            scale=max(0.25, self.config.scale * 5),
        )

    # -- the stream --------------------------------------------------------

    def chunks(self) -> Iterator[SampleChunk]:
        """The world, once, in deterministic bounded chunks.

        The stream draws from the corpus's own generator, so a second
        stream would be a different world: a second call raises
        :class:`RuntimeError` (build a new corpus to stream again).
        """
        if self._streamed:
            raise RuntimeError(
                "StreamingCorpus.chunks() streams the world once; build "
                "a new StreamingCorpus to stream it again")
        self._streamed = True
        return self._generator.stream_chunks(
            chunk_samples=self.chunk_samples,
            keep_sample_hashes=self.keep_sample_hashes,
        )


def materialize_stream(config: Optional[ScenarioConfig] = None,
                       chunk_samples: int = 4096) -> SyntheticWorld:
    """Rebuild a full :class:`SyntheticWorld` from the chunk stream.

    Exists for the equivalence suite (stream ≡ batch) and as a drop-in
    world builder; it deliberately re-accumulates everything the stream
    exists to avoid holding, so don't use it at the million scale.
    """
    corpus = StreamingCorpus(config, chunk_samples=chunk_samples)
    samples: List[SampleRecord] = []
    for chunk in corpus.chunks():
        samples.extend(chunk.samples)
        # chunks carry their own intel; fold it back into the services
        for report in chunk.reports.values():
            corpus.vt.add_report(report)
        for ha_report in chunk.ha_reports.values():
            corpus.ha.publish(ha_report)
    return SyntheticWorld(
        config=corpus.config,
        samples=samples,
        vt=corpus.vt,
        ha=corpus.ha,
        dns_zone=corpus.dns_zone,
        resolver=corpus.resolver,
        passive_dns=corpus.passive_dns,
        pool_directory=corpus.pool_directory,
        osint=corpus.osint,
        stock_catalog=corpus.stock_catalog,
        ground_truth=corpus.ground_truth,
        forum_corpus=corpus.forum_corpus(),
    )
