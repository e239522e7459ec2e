"""The measurement pipeline over a streamed corpus: flat-RSS stage 1/2.

:class:`ScalePipeline` runs :class:`~repro.core.pipeline.MeasurementPipeline`'s
methodology over :class:`~repro.scale.stream.StreamingCorpus` chunks and
ends in the same :class:`~repro.core.pipeline.MeasurementTail`, with a
:class:`~repro.scale.shards.ShardedCampaignAggregator` over the record
store.  Its per-sample loops are built from the fold's step functions
but are its own: recovery searches only the rejected-malware spill, and
dropper links come from the chunks arrived so far.  What must outlive a
chunk is parked on disk or in compact per-sample scalars:

* accepted records -> columnar :class:`~repro.scale.columnar.RecordStore`
  segments (flushed every :data:`SEGMENT_ROWS` acceptances);
* deferred samples -> a pickle spill, swept for the wallet exception
  once the confirmed-wallet set is final (the batch order: all of
  stage 1, then stage 2);
* rejected malware -> a second spill, the *complete* admission universe
  of ancillary recovery (at stage 1, passing ``is_executable`` and
  ``is_malware`` without being kept is exactly ``rejected``);
* dropper links    -> an in-memory reverse-parents index, built chunk by
  chunk: the per-chunk VT view has no ``children_of``.

Resident state is O(samples) only in small constants (hash sets, spill
offsets, link sets, per-feed counters): ``BENCH_scale.json`` measures
168.5 MiB peak RSS at 11,202 samples and 384.6 MiB at 115,260, about
2.1 KiB per added sample, against the batch pipeline's ~10 KB;
``docs/performance.md`` has the layout rationale.

Enrichment needs sample bodies and the full VT corpus, so this path
stops after aggregation: the equivalence suite compares it with the
batch pipeline's *pre-enrichment* outputs, which are bit-identical.
"""

import pickle
import shutil
import tempfile
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.core.aggregation import Campaign, GroupingPolicy
from repro.core.pipeline import (
    MeasurementTail,
    PipelineStats,
    analyze_linked_sample,
    build_analysis_components,
    recover_linked,
    stage1_analyze,
    stage2_sweep,
)
from repro.core.profit import ProfitAnalyzer, WalletProfile
from repro.core.records import MinerRecord
from repro.core.sanity import MALWARE_POSITIVES_THRESHOLD, SanityVerdict
from repro.corpus.model import SampleRecord, SyntheticWorld
from repro.perf.cache import release_caches
from repro.scale.columnar import RecordStore
from repro.scale.shards import ShardedCampaignAggregator
from repro.scale.stream import ChunkPrefetcher, StreamingCorpus

__all__ = ["ScalePipeline", "ScaleResult"]

#: accepted records buffered per columnar segment flush
SEGMENT_ROWS = 8192

#: spill payload: the sample plus the intel its chunk carried for it.
_SpillEntry = Tuple[SampleRecord, object, object]


class _IntelView:
    """A VT/HA stand-in whose report map is swapped per chunk.

    The sanity checker and extraction engine only ever call
    ``get_report`` (asserted by the whole-program lint's call graph), so
    this is the entire surface the persistent engine needs.
    """

    def __init__(self) -> None:
        self._reports: Dict[str, object] = {}

    def swap(self, reports: Dict[str, object]) -> None:
        self._reports = reports

    def get_report(self, sha256: str):
        return self._reports.get(sha256)


class _Spill:
    """Append-only pickle spill with an in-memory sha -> offset index.

    Iteration replays entries in insertion order, which is what keeps
    the stage-2 sweep identical to the batch pipeline's deferred-list
    order.  ~56 bytes of RSS per spilled sample; bodies live on disk.
    """

    def __init__(self, path: Path) -> None:
        self._path = Path(path)
        self._handle = open(self._path, "wb+")
        self._offsets: Dict[str, int] = {}

    def put(self, sha256: str, entry: _SpillEntry) -> None:
        self._handle.seek(0, 2)
        self._offsets[sha256] = self._handle.tell()
        pickle.dump(entry, self._handle, protocol=pickle.HIGHEST_PROTOCOL)

    def get(self, sha256: str) -> Optional[_SpillEntry]:
        offset = self._offsets.get(sha256)
        if offset is None:
            return None
        self._handle.seek(offset)
        return pickle.load(self._handle)

    def __len__(self) -> int:
        return len(self._offsets)

    def entries(self) -> Iterator[_SpillEntry]:
        """Every entry, in insertion order."""
        for sha in list(self._offsets):
            yield self.get(sha)

    def bytes_written(self) -> int:
        self._handle.seek(0, 2)
        return self._handle.tell()

    def close(self) -> None:
        self._handle.close()
        self._path.unlink(missing_ok=True)


@dataclass
class ScaleResult:
    """What the out-of-core pipeline produces, and what
    :func:`repro.serve.snapshot.result_from_store` derives from a store.

    ``store`` replaces the batch result's in-memory record list;
    :meth:`records` materialises it (tier-1 equivalence tests only —
    defeats the point at the million scale).  Neither producer keeps a
    per-sample verdict map, so ``verdicts`` stays empty, and the
    campaigns carry no record lists.
    """

    store: RecordStore
    campaigns: List[Campaign]
    profiles: Dict[str, WalletProfile]
    stats: PipelineStats
    proxy_ips: Set[str]
    verdicts: Dict[str, SanityVerdict] = field(default_factory=dict)
    #: observability for the scaling bench
    deferred_spilled: int = 0
    rejected_spilled: int = 0
    recovered: int = 0
    spill_bytes: int = 0
    #: the run's own temp workdir, which holds ``store`` (None when the
    #: caller supplied the workdir or the store)
    workdir: Optional[Path] = None

    def records(self) -> List[MinerRecord]:
        """Materialise every stored record (small worlds only)."""
        return list(self.store.iter_records())

    def close(self) -> None:
        """Remove the run's own workdir, store included; the store's
        records cannot be read after this.  A no-op otherwise."""
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir = None


class ScalePipeline:
    """Chunked, disk-backed run of the measurement methodology.

    ``prefetch`` (default 2) generates the next corpus chunks on a
    background thread while the current one is analysed
    (:class:`~repro.scale.stream.ChunkPrefetcher`); chunks are consumed
    in generation order, so the stage-1-then-stage-2 ordering and every
    spill is byte-identical to the eager path — ``prefetch=0`` disables
    the overlap entirely.
    """

    def __init__(self, corpus: StreamingCorpus,
                 store: Optional[RecordStore] = None,
                 workdir: Optional[Path] = None,
                 num_shards: int = 8,
                 prefetch: int = 2) -> None:
        if prefetch < 0:
            raise ValueError("prefetch must be >= 0")
        self.corpus = corpus
        self.prefetch = prefetch
        self._num_shards = num_shards
        self._own_workdir = workdir is None
        self._workdir = Path(workdir or tempfile.mkdtemp(prefix="repro-scale-"))
        self._workdir.mkdir(parents=True, exist_ok=True)
        # `store or ...` would discard a caller's *empty* store
        # (RecordStore defines __len__, so an empty one is falsy)
        self.store = (store if store is not None
                      else RecordStore(self._workdir / "store"))
        # persistent serial components over swappable chunk intel views
        self._vt_view = _IntelView()
        self._ha_view = _IntelView()
        self._checker, self._engine = build_analysis_components(
            self._skeleton_world(), MALWARE_POSITIVES_THRESHOLD)
        self._profit = ProfitAnalyzer(corpus.pool_directory)
        # O(1)-per-sample resident state
        self._confirmed_wallets: Set[str] = set()
        self._accepted: Set[str] = set()
        self._accum_links: Set[str] = set()
        self._reverse_parents: Dict[str, List[str]] = {}
        self._buffer: List[MinerRecord] = []
        self._segment_counter = 0

    # -- world facade ------------------------------------------------------

    def _skeleton_world(self) -> SyntheticWorld:
        """A SyntheticWorld shell over skeleton services + chunk intel."""
        corpus = self.corpus
        return SyntheticWorld(
            config=corpus.config,
            samples=[],
            vt=self._vt_view,
            ha=self._ha_view,
            dns_zone=corpus.dns_zone,
            resolver=corpus.resolver,
            passive_dns=corpus.passive_dns,
            pool_directory=corpus.pool_directory,
            osint=corpus.osint,
            stock_catalog=corpus.stock_catalog,
            ground_truth=[],
        )

    # -- acceptance bookkeeping --------------------------------------------

    def _accept(self, record: MinerRecord, sample: SampleRecord,
                stats: PipelineStats) -> None:
        self._accepted.add(record.sha256)
        self._accum_links.update(record.parents)
        self._accum_links.update(record.dropped)
        # the batch funnel counts these over the final kept set; a
        # record's type never changes after acceptance, so counting at
        # acceptance is the same sum.
        stats.count_kept(record, sample)
        self._buffer.append(record)
        if len(self._buffer) >= SEGMENT_ROWS:
            self._flush_segment()

    def _flush_segment(self) -> None:
        if not self._buffer:
            return
        self.store.append_segment(self._buffer,
                                  name=f"{self._segment_counter:06d}")
        self._segment_counter += 1
        self._buffer = []

    def _swap_views(self, entries: List[_SpillEntry]) -> None:
        """Point the VT/HA views at the intel of spilled samples."""
        self._vt_view.swap({entry[0].sha256: entry[1] for entry in entries})
        self._ha_view.swap({entry[0].sha256: entry[2] for entry in entries
                            if entry[2] is not None})

    def _index_parents(self, reports: Dict[str, object]) -> None:
        """Add one chunk's dropper links to the reverse-parents index
        (the per-chunk VT view cannot answer ``children_of``)."""
        for sha, report in reports.items():
            for parent in report.parents:
                self._reverse_parents.setdefault(parent, []).append(sha)

    # -- stages ------------------------------------------------------------

    def run(self) -> ScaleResult:
        """Stream the corpus through all measurement stages."""
        chunks = self.corpus.chunks()
        if self.prefetch > 0:
            chunks = ChunkPrefetcher(chunks, depth=self.prefetch)
        stats = PipelineStats()
        deferred = _Spill(self._workdir / "deferred.spill")
        rejected = _Spill(self._workdir / "rejected.spill")
        owns_store = (self._own_workdir
                      and self.store.root == self._workdir / "store")
        finished = False
        try:
            index = 0
            for chunk in chunks:
                index = self._stage1_chunk(chunk, index, stats, deferred,
                                           rejected)
            self._stage2(stats, deferred)
            linked: Set[str] = set(self._accum_links)
            for sha in self._accepted:
                linked.update(self._reverse_parents.get(sha, ()))
            recovered = recover_linked(
                linked, self._links_of,
                partial(self._admit_rejected, rejected, stats))
            self._flush_segment()

            tail = MeasurementTail(self._profit)
            tail.add(self.store.iter_records())
            campaigns = tail.campaigns(
                lambda proxies: ShardedCampaignAggregator(
                    self.corpus.osint, GroupingPolicy.full(),
                    proxy_ips=proxies, num_shards=self._num_shards,
                    keep_records=False,
                ).aggregate_source(self.store.iter_records))

            result = ScaleResult(
                store=self.store,
                campaigns=campaigns,
                profiles=tail.profiles,
                stats=stats,
                proxy_ips=tail.proxy_ips,
                deferred_spilled=len(deferred),
                rejected_spilled=len(rejected),
                recovered=recovered,
                spill_bytes=deferred.bytes_written()
                + rejected.bytes_written(),
                workdir=self._workdir if owns_store else None,
            )
            finished = True
            return result
        finally:
            if isinstance(chunks, ChunkPrefetcher):
                chunks.close()
            release_caches()
            deferred.close()
            rejected.close()
            if self._own_workdir and not (finished and owns_store):
                # a failed run leaves nothing behind; a finished one
                # keeps the store its result reads (until the result's
                # close), unless the caller supplied the store and
                # nothing of theirs lives here
                shutil.rmtree(self._workdir, ignore_errors=True)

    def _stage1_chunk(self, chunk, index: int, stats: PipelineStats,
                      deferred: _Spill, rejected: _Spill) -> int:
        """Stage-1 analysis of one chunk; returns the next sample index."""
        stats.collected += len(chunk.samples)
        self._index_parents(chunk.reports)
        self._vt_view.swap(chunk.reports)
        self._ha_view.swap(chunk.ha_reports)
        for i, sample in enumerate(chunk.samples):
            outcome = stage1_analyze(sample, index + i,
                                     self._checker, self._engine)
            stats.tally(outcome)
            sha = outcome.sha256
            if outcome.kind == "nonexec":
                continue
            if outcome.kind == "deferred":
                deferred.put(sha, (sample, chunk.reports[sha],
                                   chunk.ha_reports.get(sha)))
                continue
            if outcome.kind == "miner":
                self._confirmed_wallets.update(
                    outcome.record.identifiers)
                self._accept(outcome.record, sample, stats)
            else:
                rejected.put(sha, (sample, chunk.reports[sha],
                                   chunk.ha_reports.get(sha)))
        return index + len(chunk.samples)

    def _stage2(self, stats: PipelineStats, deferred: _Spill) -> None:
        """The wallet-exception sweep over the deferred spill, a chunk's
        worth of samples (and intel) at a time."""
        confirmed = frozenset(self._confirmed_wallets)
        entries = deferred.entries()
        while True:
            window = list(islice(entries, self.corpus.chunk_samples))
            if not window:
                return
            self._swap_views(window)
            for i, (sample, _report, _ha_report) in enumerate(window):
                outcome = stage2_sweep(sample, i, confirmed, self._engine)
                stats.tally(outcome)
                if outcome.kind == "exception":
                    self._accept(outcome.record, sample, stats)

    def _links_of(self, record: MinerRecord) -> List[str]:
        """Dropper-chain neighbours, children from the reverse index."""
        return [*record.parents, *record.dropped,
                *self._reverse_parents.get(record.sha256, ())]

    def _admit_rejected(self, rejected: _Spill, stats: PipelineStats,
                        sha: str) -> Optional[MinerRecord]:
        """Recovery's admission test against the rejected-malware spill.

        The batch fixpoint admits a linked sample iff it exists, is
        executable, and is malware — at stage 1 exactly the ``rejected``
        outcome — so the spill IS the admission universe and the
        executable/malware re-checks are implied by membership.
        """
        if sha in self._accepted:
            return None
        entry = rejected.get(sha)
        if entry is None:
            return None
        self._swap_views([entry])
        sample = entry[0]
        record, _verdict = analyze_linked_sample(sample, self._engine)
        stats.sandbox_analyses += 1
        self._accept(record, sample, stats)
        return record
