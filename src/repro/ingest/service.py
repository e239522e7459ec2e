"""The streaming ingestion service: incremental end-to-end measurement.

Replays a synthetic world as dated feed batches (:mod:`repro.ingest.feed`)
and maintains the full measurement state online: per-sample analysis,
the illicit-wallet exception, dropper-chain recovery, profit profiling,
proxy identification and campaign aggregation all advance batch by
batch, with the invariant that the state after the final batch **equals
the batch pipeline's output** on the same world (verified by the
equivalence test suite).

Cross-batch couplings the batch pipeline resolves with global passes
are handled by monotonicity:

* *wallet exception* — samples below the AV threshold stay ``pending``
  and are promoted the moment any batch confirms one of their wallets;
* *dropper chains* — links to samples that have not arrived yet go on a
  ``wanted`` list and are recovered on arrival;
* *proxies* — an IP established as a proxy retroactively links earlier
  records via the union-find's destination-IP index.

Every outcome is journaled to a :class:`~repro.ingest.checkpoint.
CheckpointStore` before the batch commits, so a SIGKILL at any point
loses at most the in-flight batch's uncommitted window — and resuming
with ``resume=True`` skips every already-committed batch and every
journaled hash of the in-flight one.
"""

import dataclasses
import datetime
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Set

from repro.core.aggregation import CampaignAggregator, GroupingPolicy
from repro.core.enrichment import CampaignEnricher
from repro.core.pipeline import (
    DEFAULT_ANALYSIS_DATE,
    MeasurementResult,
    PipelineStats,
    SampleOutcome,
    analyze_linked_sample,
    below_threshold_verdict,
    build_analysis_components,
    derive_from_records,
    find_proxies,
    linked_hashes,
    proxy_candidates,
    recover_linked,
    stage1_analyze,
    stage2_sweep,
)
from repro.core.profit import ProfitAnalyzer, WalletProfile
from repro.core.records import MinerRecord
from repro.core.sanity import SanityVerdict
from repro.corpus.model import SyntheticWorld
from repro.ingest.checkpoint import CheckpointStore, JournalReplay
from repro.ingest.codec import (
    decode_date,
    decode_outcome,
    decode_record,
    decode_stats,
    decode_verdict,
    encode_date,
    encode_outcome,
    encode_record,
    encode_stats,
    encode_verdict,
)
from repro.ingest.feed import FeedBatch, FeedScheduler
from repro.perf.profiler import PipelineProfiler

#: stage-1 outcome kinds (everything else is a promotion or recovery).
_STAGE1_KINDS = frozenset({"nonexec", "deferred", "rejected", "miner"})


@dataclass
class BatchMetrics:
    """Per-batch ingestion telemetry (journaled with the commit)."""

    batch_id: int
    start: Optional[datetime.date]
    end: Optional[datetime.date]
    samples: int
    analyzed: int = 0          # freshly analysed (not replayed) samples
    admitted: int = 0          # records added to the measurement
    new_miners: int = 0
    promotions: int = 0        # wallet-exception promotions
    recovered: int = 0         # dropper-chain recoveries
    campaign_merges: int = 0   # union-find component merges
    new_wallets: int = 0       # newly profiled identifiers with activity
    profit_delta_xmr: float = 0.0
    wall_s: float = 0.0

    @property
    def samples_per_s(self) -> float:
        """Batch throughput over freshly analysed samples."""
        return self.analyzed / self.wall_s if self.wall_s > 0 else 0.0

    def to_json(self) -> Dict:
        """JSON-safe dict for the journal's commit line."""
        out = self.__dict__.copy()
        out["start"] = encode_date(self.start)
        out["end"] = encode_date(self.end)
        return out

    @classmethod
    def from_json(cls, data: Dict) -> "BatchMetrics":
        """Inverse of :meth:`to_json`."""
        data = dict(data)
        data["start"] = decode_date(data.get("start"))
        data["end"] = decode_date(data.get("end"))
        return cls(**data)


@dataclass
class IngestionResult:
    """What one ingestion run (or resumption) produced."""

    result: MeasurementResult
    batches: List[BatchMetrics] = field(default_factory=list)
    #: batch index the run started at (0 = fresh, >0 = resumed)
    resumed_from: int = 0
    total_batches: int = 0


def diff_measurements(expected: MeasurementResult,
                      actual: MeasurementResult) -> List[str]:
    """Differences between two measurement results (empty = equal).

    The incremental-vs-batch acceptance check: compares record sets,
    verdicts, funnel stats, proxies, profiled wallets, the campaign
    partition, and per-campaign wallets + profit totals.  Campaign ids
    are canonical on both paths, so campaigns compare positionally.
    """
    diffs: List[str] = []
    expected_hashes = sorted(r.sha256 for r in expected.records)
    actual_hashes = sorted(r.sha256 for r in actual.records)
    if expected_hashes != actual_hashes:
        diffs.append(
            f"record sets differ ({len(expected_hashes)} vs "
            f"{len(actual_hashes)} records)")
    if expected.verdicts != actual.verdicts:
        changed = sum(
            1 for sha in expected.verdicts
            if actual.verdicts.get(sha) != expected.verdicts[sha])
        diffs.append(f"verdicts differ ({changed} changed)")
    if expected.stats != actual.stats:
        diffs.append("funnel stats differ")
    if expected.proxy_ips != actual.proxy_ips:
        diffs.append("proxy IP sets differ")
    if set(expected.profiles) != set(actual.profiles):
        diffs.append("profiled wallet sets differ")
    expected_partition = [tuple(c.sample_hashes)
                          for c in expected.campaigns]
    actual_partition = [tuple(c.sample_hashes) for c in actual.campaigns]
    if expected_partition != actual_partition:
        diffs.append(
            f"campaign partitions differ ({len(expected_partition)} vs "
            f"{len(actual_partition)} campaigns)")
        return diffs  # per-campaign comparison is meaningless now
    for mine, theirs in zip(expected.campaigns, actual.campaigns):
        if (mine.identifiers != theirs.identifiers
                or abs(mine.total_xmr - theirs.total_xmr) > 1e-9
                or abs(mine.total_usd - theirs.total_usd) > 1e-9
                or mine.pools_used != theirs.pools_used):
            diffs.append(f"campaign {mine.campaign_id} annotations differ")
    return diffs


class IngestionService:
    """Long-running incremental ingestion over a feed replay.

    ``fault_hook(point, batch_id)`` is a test seam called at the
    durability boundaries (``pre-commit`` / ``post-commit`` /
    ``pre-snapshot`` / ``post-snapshot``); raising from it simulates a
    crash at that exact point.
    """

    def __init__(self, world: SyntheticWorld, checkpoint_dir,
                 batch_days: int = 1,
                 policy: Optional[GroupingPolicy] = None,
                 positives_threshold: int = 10,
                 analysis_date: datetime.date = DEFAULT_ANALYSIS_DATE,
                 use_ha_reports: bool = True,
                 resume: bool = False,
                 snapshot_every: int = 8,
                 fsync: bool = True,
                 profiler: Optional[PipelineProfiler] = None,
                 fault_hook: Optional[Callable[[str, int], None]] = None,
                 record_store=None) -> None:
        if snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        self.world = world
        self.resume = resume
        self.snapshot_every = snapshot_every
        self.profiler = profiler or PipelineProfiler()
        self.scheduler = FeedScheduler(world, batch_days)
        self.store = CheckpointStore(checkpoint_dir, fsync=fsync)
        #: optional repro.scale.columnar.RecordStore (duck-typed to keep
        #: ingest free of a scale import); each batch's admitted records
        #: become one batch-aligned segment, written before the commit
        #: marker so a replayed batch finds its segment already present
        #: and skips it (the reprocessed records are deterministic).
        self.record_store = record_store
        self._policy = policy or GroupingPolicy.full()
        self._fault = fault_hook or (lambda point, batch_id: None)
        self._checker, self._engine = build_analysis_components(
            world, positives_threshold, analysis_date, use_ha_reports)
        self._profit = ProfitAnalyzer(world.pool_directory)
        self._reset_state()

    def _reset_state(self) -> None:
        self._stats = PipelineStats()
        self._records: Dict[str, MinerRecord] = {}
        self._verdicts: Dict[str, SanityVerdict] = {}
        self._confirmed: Set[str] = set()
        self._pending: Dict[str, int] = {}          # deferred sha -> index
        self._pending_ids: Dict[str, frozenset] = {}
        self._arrived: Dict[str, int] = {}
        self._wanted: Set[str] = set()              # linked, not arrived
        self._profiles: Dict[str, WalletProfile] = {}
        self._profiled: Set[str] = set()
        self._proxy_ips: Set[str] = set()
        self._agg = CampaignAggregator(self.world.osint, self._policy)
        self._cursor = 0
        self._replayed_stage1: Set[str] = set()
        self._resume_frontier: List[str] = []
        self.batch_metrics: List[BatchMetrics] = []

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def run(self) -> IngestionResult:
        """Process every (remaining) batch, finalize, and report."""
        from repro.perf.scan import profiled_scan
        with profiled_scan(self.profiler):
            return self._run_batches()

    def _run_batches(self) -> IngestionResult:
        batches = self.scheduler.batches()
        resumed_from = 0
        if self.store.exists():
            if not self.resume:
                raise ValueError(
                    f"{self.store.directory} already holds checkpoint "
                    "state; pass resume=True or use a fresh directory")
            with self.profiler.stage("checkpoint restore"):
                self._restore(self.store.load(), batches)
                self._rebuild_wanted()
            resumed_from = self._cursor
        try:
            for batch in batches[self._cursor:]:
                self._ingest_batch(batch)
            result = self.finalize()
        finally:
            self.store.close()
        return IngestionResult(result=result,
                               batches=list(self.batch_metrics),
                               resumed_from=resumed_from,
                               total_batches=len(batches))

    def _ingest_batch(self, batch: FeedBatch) -> None:
        t0 = time.perf_counter()
        samples = self.world.samples
        self._stats.collected += batch.num_samples
        arrived_now = []
        for index in batch.indices:
            sha = samples[index].sha256
            if sha not in self._arrived:
                arrived_now.append(sha)
            self._arrived[sha] = index
        new_records: List[str] = []
        frontier_seed = list(self._resume_frontier)
        self._resume_frontier = []

        # -- stage 1: sanity + extraction for this window's samples -----
        todo = [i for i in batch.indices
                if samples[i].sha256 not in self._replayed_stage1]
        self._replayed_stage1.clear()
        with self.profiler.stage("ingest: extraction", items=len(todo)):
            for index in todo:
                outcome = stage1_analyze(samples[index], index,
                                         self._checker, self._engine)
                self.store.append_outcome(batch.batch_id,
                                          encode_outcome(outcome))
                self._apply_outcome(outcome, new_records)
        miners_before_sweeps = sum(
            1 for sha in new_records if self._records[sha].is_miner)

        # -- wallet-exception promotions against the full confirmed set --
        promotions = self._promote_pending(batch, new_records)

        # -- dropper-chain recovery over arrived samples ------------------
        recovered = self._recover(batch, frontier_seed, arrived_now,
                                  new_records)

        # -- profit profiling for identifiers first seen this batch ------
        new_wallets, profit_delta = self._profile_new_identifiers(
            new_records)

        # -- proxy identification + incremental aggregation ---------------
        merges = self._aggregate_new(new_records)

        metrics = BatchMetrics(
            batch_id=batch.batch_id, start=batch.start, end=batch.end,
            samples=batch.num_samples, analyzed=len(todo),
            admitted=len(new_records),
            new_miners=miners_before_sweeps, promotions=promotions,
            recovered=recovered, campaign_merges=merges,
            new_wallets=new_wallets, profit_delta_xmr=profit_delta,
            wall_s=time.perf_counter() - t0)
        self.batch_metrics.append(metrics)
        self.profiler.count("batches_committed")

        # -- durability boundary ------------------------------------------
        # journal-replayed admissions (frontier_seed) belong to this
        # batch too — a resumed in-flight batch must write the same
        # record set an uninterrupted run would have.
        segment_shas = list(dict.fromkeys(frontier_seed + new_records))
        if self.record_store is not None and segment_shas:
            name = f"batch-{batch.batch_id:06d}"
            if not self.record_store.has_segment(name):
                self.record_store.append_segment(
                    [self._records[sha] for sha in segment_shas], name=name)
        self._fault("pre-commit", batch.batch_id)
        self.store.commit_batch(batch.batch_id, metrics.to_json())
        self._fault("post-commit", batch.batch_id)
        self._cursor = batch.batch_id + 1
        if self._cursor % self.snapshot_every == 0:
            self._fault("pre-snapshot", batch.batch_id)
            with self.profiler.stage("ingest: snapshot"):
                self.store.write_snapshot(self._snapshot_state())
            self._fault("post-snapshot", batch.batch_id)

    # ------------------------------------------------------------------
    # per-batch stages
    # ------------------------------------------------------------------

    def _apply_outcome(self, outcome: SampleOutcome,
                       new_records: List[str]) -> None:
        """Fold one journaled/fresh outcome into the running state.

        Used identically by live processing and journal replay, so a
        resumed run walks the exact state trajectory of an uninterrupted
        one.
        """
        sha = outcome.sha256
        self._stats.tally(outcome)
        if outcome.kind == "deferred":
            self._defer(sha, outcome.index)
            return
        # stage-2 "clean" sweeps are never journaled: a pending sample
        # stays pending until a later batch confirms one of its wallets.
        self._verdicts[sha] = outcome.verdict
        if outcome.kind == "miner":
            self._confirmed.update(outcome.record.identifiers)
        elif outcome.kind == "exception":
            self._pending.pop(sha, None)
            self._pending_ids.pop(sha, None)
        elif outcome.kind == "recovered":
            self._stats.sandbox_analyses += 1
            self._wanted.discard(sha)
        # nonexec and rejected outcomes carry no record
        if outcome.record is not None and sha not in self._records:
            self._records[sha] = outcome.record
            new_records.append(sha)
            if outcome.kind == "recovered":
                self.profiler.count("ancillaries_recovered")

    def _defer(self, sha: str, index: int) -> None:
        """Park a below-threshold sample with its static identifiers."""
        self._pending[sha] = index
        quick = self._engine.extract_static_only(self.world.samples[index])
        self._pending_ids[sha] = frozenset(quick.identifiers)

    def _promote_pending(self, batch: FeedBatch,
                         new_records: List[str]) -> int:
        """Promote deferred samples whose wallets are now confirmed."""
        matches = sorted(
            (index, sha) for sha, index in self._pending.items()
            if self._pending_ids[sha] & self._confirmed)
        if not matches:
            return 0
        promotions = 0
        with self.profiler.stage("ingest: wallet sweep",
                                 items=len(matches)):
            confirmed = frozenset(self._confirmed)
            for index, _sha in matches:
                outcome = stage2_sweep(self.world.samples[index], index,
                                       confirmed, self._engine)
                if outcome.kind != "exception":
                    continue  # stays pending; may match a later batch
                self.store.append_outcome(batch.batch_id,
                                          encode_outcome(outcome))
                self._apply_outcome(outcome, new_records)
                promotions += 1
        return promotions

    def _recover(self, batch: FeedBatch, frontier_seed: List[str],
                 arrived_now: List[str],
                 new_records: List[str]) -> int:
        """Dropper-chain recovery restricted to arrived samples.

        The first wave examines (a) links of every record added this
        batch (plus journal-replayed ones on resume) and (b) samples an
        earlier batch wanted that arrived just now.  Links pointing at
        samples still missing from the feed go on the wanted list.
        """
        vt = self.world.vt
        with self.profiler.stage("ingest: recovery"):
            linked = self._wanted.intersection(arrived_now)
            for sha in dict.fromkeys(frontier_seed + new_records):
                linked.update(linked_hashes(self._records[sha], vt))
            return recover_linked(
                linked, partial(linked_hashes, vt=vt),
                partial(self._admit_linked, batch, new_records))

    def _admit_linked(self, batch: FeedBatch, new_records: List[str],
                      sha: str) -> Optional[MinerRecord]:
        """Recovery's admission test over arrived samples, journaled.

        Also keeps the wanted list: a linked hash whose sample has not
        arrived yet is wanted until it arrives or is admitted.
        """
        if sha in self._records:
            self._wanted.discard(sha)
            return None
        index = self._arrived.get(sha)
        if index is None:
            if self.world.sample_by_hash(sha) is not None:
                self._wanted.add(sha)
            return None
        self._wanted.discard(sha)
        sample = self.world.samples[index]
        if (not self._checker.is_executable(sample.raw)
                or not self._checker.is_malware(sample.sha256)):
            return None
        record, verdict = analyze_linked_sample(sample, self._engine)
        outcome = SampleOutcome(index=index, sha256=sha, kind="recovered",
                                verdict=verdict, record=record)
        self.store.append_outcome(batch.batch_id, encode_outcome(outcome))
        self._apply_outcome(outcome, new_records)
        return record

    def _profile_new_identifiers(self,
                                 new_records: List[str]) -> tuple:
        """Poll pools for identifiers first extracted this batch."""
        fresh: List[str] = []
        for sha in new_records:
            for identifier in self._records[sha].identifiers:
                if identifier not in self._profiled:
                    self._profiled.add(identifier)
                    fresh.append(identifier)
        with self.profiler.stage("ingest: profit", items=len(fresh)):
            hits = self._profit.profile_many(sorted(fresh))
        self._profiles.update(hits)
        profit_delta = 0.0
        for profile in hits.values():
            profit_delta += profile.total_paid
        return len(hits), profit_delta

    def _aggregate_new(self, new_records: List[str]) -> int:
        """Feed this batch's records (and proxies) to the union-find."""
        with self.profiler.stage("ingest: aggregation",
                                 items=len(new_records)):
            records = [self._records[sha] for sha in new_records]
            merges = 0
            for record in records:
                merges += self._agg.add_record(record)
            new_proxies = find_proxies(proxy_candidates(records),
                                       self._profiles) - self._proxy_ips
            self._proxy_ips |= new_proxies
            merges += self._agg.add_proxy_ips(new_proxies)
        return merges

    # ------------------------------------------------------------------
    # finalization
    # ------------------------------------------------------------------

    def finalize(self) -> MeasurementResult:
        """Close out the run: final verdicts, enrichment, snapshot.

        Idempotent — resuming an already-complete checkpoint re-derives
        the same result without reprocessing any sample.
        """
        result = self._materialize_result(self._verdicts, self._stats)
        with self.profiler.stage("ingest: snapshot"):
            self.store.write_snapshot(
                self._snapshot_state(finalized=True))
        return result

    def _materialize_result(self, verdicts: Dict[str, SanityVerdict],
                            stats: PipelineStats) -> MeasurementResult:
        """Final verdicts, funnel accounting, campaigns and enrichment.

        ``verdicts`` gains the deferred samples nothing ever vouched for
        and ``stats`` is mutated (miners/ancillaries/by_source
        recomputed); callers that must not disturb the running state
        pass copies.
        """
        prof = self.profiler
        for sha in sorted(self._pending, key=self._pending.get):
            verdicts[sha] = below_threshold_verdict(sha)
        kept = list(self._records.values())
        with prof.stage("ingest: funnel accounting", items=len(kept)):
            stats.miners = stats.ancillaries = 0
            stats.by_source = {}
            for record in kept:
                stats.count_kept(
                    record, self.world.sample_by_hash(record.sha256))
        with prof.stage("ingest: materialise campaigns"):
            campaigns = self._agg.campaigns()
        with prof.stage("ingest: enrichment", items=len(campaigns)):
            enricher = CampaignEnricher(
                self.world.vt, self.world.stock_catalog,
                self.world.sample_by_hash)
            enricher.enrich_all(campaigns, self._profiles)
        return MeasurementResult(
            records=kept, campaigns=campaigns,
            profiles=dict(self._profiles),
            verdicts=dict(verdicts),
            stats=stats, proxy_ips=set(self._proxy_ips))

    # ------------------------------------------------------------------
    # read-only state access (serving layer)
    # ------------------------------------------------------------------

    def restore_state(self) -> int:
        """Rebuild in-memory state from the checkpoint, process nothing.

        The :mod:`repro.serve` index builder uses this to load whatever
        state a (possibly still-running) ingestion has made durable —
        snapshot plus committed and in-flight journal batches.  Returns
        the cursor: the first batch the checkpoint does *not* cover.
        """
        with self.profiler.stage("checkpoint restore"):
            self._restore(self.store.load(), self.scheduler.batches())
        return self._cursor

    def current_result(self) -> MeasurementResult:
        """Materialise the state ingested so far, without finalizing.

        Unlike :meth:`finalize` this neither writes a snapshot nor
        mutates the running state: pending verdicts and funnel stats
        are completed on copies, and campaigns are freshly built (the
        aggregator's materialisation is non-destructive).  After the
        final batch the result equals :meth:`finalize`'s.
        """
        return self._materialize_result(dict(self._verdicts),
                                        dataclasses.replace(self._stats))

    # ------------------------------------------------------------------
    # durable state
    # ------------------------------------------------------------------

    def _snapshot_state(self, finalized: bool = False) -> Dict:
        return {
            "cursor": self._cursor,
            "finalized": finalized,
            "batch_days": self.scheduler.batch_days,
            "seed": self.world.config.seed,
            "scale": self.world.config.scale,
            # sorted by hash so the snapshot is a pure function of the
            # state, not of arrival order (two runs reaching the same
            # state write byte-identical snapshots)
            "records": [encode_record(self._records[sha])
                        for sha in sorted(self._records)],
            "verdicts": [encode_verdict(self._verdicts[sha])
                         for sha in sorted(self._verdicts)],
            "stats": encode_stats(self._stats),
            "confirmed": sorted(self._confirmed),
            "pending": sorted(self._pending.items(),
                              key=lambda kv: kv[1]),
            "batches": [m.to_json() for m in self.batch_metrics],
        }

    def _restore(self, replay: JournalReplay,
                 batches: List[FeedBatch]) -> None:
        """Rebuild the full in-memory state from snapshot + journal."""
        self._reset_state()
        snapshot = replay.snapshot
        if snapshot is not None:
            if (snapshot.get("batch_days") != self.scheduler.batch_days
                    or snapshot.get("seed") != self.world.config.seed
                    or snapshot.get("scale") != self.world.config.scale):
                raise ValueError(
                    "checkpoint was written for a different feed plan "
                    f"(seed={snapshot.get('seed')} "
                    f"scale={snapshot.get('scale')} "
                    f"batch_days={snapshot.get('batch_days')}); refusing "
                    "to resume")
            for data in snapshot["records"]:
                record = decode_record(data)
                self._records[record.sha256] = record
            for data in snapshot["verdicts"]:
                verdict = decode_verdict(data)
                self._verdicts[verdict.sha256] = verdict
            self._stats = decode_stats(snapshot["stats"])
            self._confirmed = set(snapshot["confirmed"])
            for sha, index in snapshot["pending"]:
                self._defer(sha, index)
            self.batch_metrics = [BatchMetrics.from_json(m)
                                  for m in snapshot["batches"]]
            self._cursor = int(snapshot["cursor"])
        # samples delivered by every batch up to the cursor
        for batch in batches[:self._cursor]:
            for index in batch.indices:
                self._arrived[self.world.samples[index].sha256] = index
        # committed batches newer than the snapshot
        sink: List[str] = []
        for batch_id, outcomes in replay.committed:
            batch = batches[batch_id]
            self._stats.collected += batch.num_samples
            for index in batch.indices:
                self._arrived[self.world.samples[index].sha256] = index
            for data in outcomes:
                self._apply_outcome(decode_outcome(data), sink)
            self._cursor = batch_id + 1
        for batch_id, metrics in replay.commits:
            self.batch_metrics.append(BatchMetrics.from_json(metrics))
        # the in-flight batch: reuse journaled hashes, reprocess the rest
        for data in replay.partial.get(self._cursor, []):
            outcome = decode_outcome(data)
            if outcome.kind in _STAGE1_KINDS:
                self._replayed_stage1.add(outcome.sha256)
            before = len(sink)
            self._apply_outcome(outcome, sink)
            if len(sink) > before:
                # replayed records still owe their recovery examination
                self._resume_frontier.append(outcome.sha256)
        # derived state is recomputed, not persisted: deterministic
        records = list(self._records.values())
        self._profiled = {identifier for record in records
                          for identifier in record.identifiers}
        self._profiles, self._proxy_ips = derive_from_records(
            records, self._profit, self._agg)

    def _rebuild_wanted(self) -> None:
        """Re-derive the wanted list from the restored record set.

        A linked hash is wanted iff some accepted record links to it,
        it was not admitted, and its sample has not arrived yet (an
        arrived-but-unadmitted link already failed its deterministic
        executable/malware checks and never qualifies later).  Being a
        pure function of the records, this needs no journaling.  Only
        recovery reads the list, so only a resumed :meth:`run` rebuilds
        it; read-only restores skip its ``children_of`` call per record.
        """
        self._wanted = set()
        for record in self._records.values():
            for sha in linked_hashes(record, self.world.vt):
                if sha in self._records or sha in self._arrived:
                    continue
                if self.world.sample_by_hash(sha) is not None:
                    self._wanted.add(sha)
