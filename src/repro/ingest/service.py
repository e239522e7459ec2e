"""The streaming ingestion service: checkpointed incremental measurement.

Replays a synthetic world as dated feed batches (:mod:`repro.ingest.feed`)
and folds each into the measurement with the batch pipeline's engine:
one :meth:`~repro.core.pipeline.MeasurementFold.step` per batch, then
its admissions through :meth:`~repro.core.pipeline.MeasurementTail.add`
into an incremental campaign aggregator (an IP established as a proxy
retroactively links earlier records).  A result is the fold's
``finish`` plus the tail's ``campaigns``, as in the batch pipeline, so
after the final batch it **equals the batch pipeline's output** on the
same world (verified by the equivalence suite).

This module owns the schedule and the durability: every outcome the
fold produces is journaled to a :class:`~repro.ingest.checkpoint.
CheckpointStore` before the batch commits, so a SIGKILL at any point
loses at most the in-flight batch's uncommitted window — and resuming
with ``resume=True`` skips every already-committed batch and every
journaled hash of the in-flight one.
"""

import dataclasses
import datetime
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.aggregation import (
    Campaign,
    CampaignAggregator,
    GroupingPolicy,
)
from repro.core.enrichment import (
    CampaignEnricher,
    StockToolFact,
    add_stock_tool_facts,
    stock_tool_candidates,
)
from repro.core.pipeline import (
    MeasurementFold,
    MeasurementResult,
    MeasurementTail,
    build_analysis_components,
)
from repro.core.profit import ProfitAnalyzer, WalletProfile
from repro.core.records import MinerRecord
from repro.core.sanity import MALWARE_POSITIVES_THRESHOLD
from repro.corpus.model import SyntheticWorld
from repro.ingest.checkpoint import CheckpointStore, JournalReplay
from repro.ingest.codec import (
    Encoded,
    decode_date,
    decode_outcome,
    decode_record,
    decode_stats,
    decode_verdict,
    encode,
)
from repro.ingest.feed import FeedBatch, FeedScheduler
from repro.perf.profiler import PipelineProfiler

#: stage-1 outcome kinds (everything else is a promotion or recovery).
_STAGE1_KINDS = frozenset({"nonexec", "deferred", "rejected", "miner"})


@dataclass
class BatchMetrics:
    """Per-batch ingestion telemetry (journaled with the commit, dates
    as ISO strings)."""

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

    @classmethod
    def from_json(cls, data: Dict) -> "BatchMetrics":
        """The metrics from their journaled JSON form."""
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
    verdicts, funnel stats, proxies, every wallet profile, the campaign
    partition, and every field of every campaign but its record list
    (enrichment included).  Campaign ids are canonical on both paths,
    so campaigns compare positionally.
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
    elif expected.profiles != actual.profiles:
        changed = sum(1 for identifier, profile in expected.profiles.items()
                      if actual.profiles[identifier] != profile)
        diffs.append(f"wallet profiles differ ({changed} changed)")
    expected_partition = [tuple(c.sample_hashes)
                          for c in expected.campaigns]
    actual_partition = [tuple(c.sample_hashes) for c in actual.campaigns]
    if expected_partition != actual_partition:
        diffs.append(
            f"campaign partitions differ ({len(expected_partition)} vs "
            f"{len(actual_partition)} campaigns)")
        return diffs  # per-campaign comparison is meaningless now
    for mine, theirs in zip(expected.campaigns, actual.campaigns):
        differing = [f.name for f in dataclasses.fields(Campaign)
                     if f.name != "records" and getattr(
                         mine, f.name) != getattr(theirs, f.name)]
        if differing:
            diffs.append(f"campaign {mine.campaign_id} differs in "
                         f"{', '.join(differing)}")
    return diffs


def _texts(objects: Dict[str, Any],
           memo: Dict[str, Tuple[Any, Encoded]]) -> List[Encoded]:
    """The JSON text of each value, in key order.  A value is encoded
    only when it is new under its key: the fold never replaces a record
    and replaces a verdict rather than mutating it, so an unchanged
    value's text from an earlier snapshot still stands."""
    texts = []
    for key in sorted(objects):
        value = objects[key]
        entry = memo.get(key)
        if entry is None or entry[0] is not value:
            entry = memo[key] = (value, Encoded(encode(value)))
        texts.append(entry[1])
    return texts


class IngestionService:
    """Long-running incremental ingestion over a feed replay.

    ``fault_hook(point, batch_id)`` is a test seam called at the
    durability boundaries (``pre-commit`` / ``post-commit`` /
    ``pre-snapshot`` / ``post-snapshot``); raising from it simulates a
    crash at that exact point.
    """

    def __init__(self, world: SyntheticWorld, checkpoint_dir,
                 batch_days: int = 1,
                 resume: bool = False,
                 snapshot_every: int = 8,
                 fsync: bool = True,
                 fault_hook: Optional[Callable[[str, int], None]] = None
                 ) -> None:
        if snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        self.world = world
        self.resume = resume
        self.snapshot_every = snapshot_every
        self.profiler = PipelineProfiler()
        self.scheduler = FeedScheduler(world, batch_days)
        self.store = CheckpointStore(checkpoint_dir, fsync=fsync)
        self._fault = fault_hook or (lambda point, batch_id: None)
        self._checker, self._engine = build_analysis_components(
            world, MALWARE_POSITIVES_THRESHOLD)
        self._profit = ProfitAnalyzer(world.pool_directory)
        self._reset_state()

    def _reset_state(self) -> None:
        self.fold = MeasurementFold(self.world, self._checker, self._engine,
                                    self.profiler)
        self.tail = MeasurementTail(self._profit, self.profiler)
        self._agg = CampaignAggregator(self.world.osint,
                                       GroupingPolicy.full())
        self._cursor = 0
        self._replayed_stage1: Set[str] = set()
        self._resume_frontier: List[str] = []
        self.batch_metrics: List[BatchMetrics] = []
        #: sha -> (record or verdict, its JSON text) as last snapshotted
        self._record_texts: Dict[str, Tuple[Any, Encoded]] = {}
        self._verdict_texts: Dict[str, Tuple[Any, Encoded]] = {}
        #: candidate sha -> stock-tool fact, filled when a result is
        #: materialised and kept by the finalized snapshot
        self._stock_tools: Dict[str, StockToolFact] = {}

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def run(self) -> IngestionResult:
        """Process every (remaining) batch, finalize, and report."""
        from repro.perf.cache import release_caches
        from repro.perf.scan import profiled_scan
        try:
            with profiled_scan(self.profiler):
                return self._run_batches()
        finally:
            release_caches()

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
                self.fold.rebuild_wanted()
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
        step = self.fold.step(
            batch.indices,
            journal=lambda outcome: self.store.append_outcome(
                batch.batch_id, outcome),
            replayed=self._replayed_stage1, frontier=self._resume_frontier)
        self._replayed_stage1 = set()
        self._resume_frontier = []
        hits, merges = self._link(
            [self.fold.records[sha] for sha in step.records])
        metrics = BatchMetrics(
            batch_id=batch.batch_id, start=batch.start, end=batch.end,
            samples=batch.num_samples, analyzed=step.analyzed,
            admitted=len(step.records), new_miners=step.miners,
            promotions=step.promotions, recovered=step.recovered,
            campaign_merges=merges, new_wallets=len(hits),
            profit_delta_xmr=sum(
                (profile.total_paid for profile in hits.values()), 0.0),
            wall_s=time.perf_counter() - t0)
        self.batch_metrics.append(metrics)
        self.profiler.count("batches_committed")

        # -- durability boundary ------------------------------------------
        self._fault("pre-commit", batch.batch_id)
        self.store.commit_batch(batch.batch_id, metrics)
        self._fault("post-commit", batch.batch_id)
        self._cursor = batch.batch_id + 1
        if self._cursor % self.snapshot_every == 0:
            self._fault("pre-snapshot", batch.batch_id)
            with self.profiler.stage("ingest: snapshot"):
                self.store.write_snapshot(self._snapshot_state())
            self._fault("post-snapshot", batch.batch_id)

    def _link(self, records: List[MinerRecord]
              ) -> Tuple[Dict[str, WalletProfile], int]:
        """Profile and proxy-check records, then feed them and the new
        proxies to the incremental aggregator; returns the new profiles
        and the component merges."""
        hits, proxies = self.tail.add(records)
        with self.profiler.stage("aggregation", items=len(records)):
            merges = sum(self._agg.add_record(record) for record in records)
            merges += self._agg.add_proxy_ips(proxies)
        return hits, merges

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def finalize(self) -> MeasurementResult:
        """Close out the run: final verdicts, enrichment, snapshot.

        The finalized snapshot also keeps the stock-tool fact table, so
        a later restore enriches without running CTPH.  Idempotent —
        resuming an already-complete checkpoint re-derives the same
        result, and rewrites the same snapshot, without reprocessing
        any sample.
        """
        result = self._materialize(copy=False)
        with self.profiler.stage("ingest: snapshot"):
            self.store.write_snapshot(
                self._snapshot_state(finalized=True))
        return result

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
        mutates the running state, and the aggregator's materialisation
        is non-destructive.  After the final batch the result equals
        :meth:`finalize`'s.
        """
        return self._materialize(copy=True)

    def _materialize(self, copy: bool) -> MeasurementResult:
        """The fold's finish plus the tail's campaigns and enrichment;
        ``copy=False`` completes the running verdicts and funnel.  Only
        the kept records' candidate shas the fact table lacks are
        attributed: none after restoring a finalized snapshot."""
        kept, verdicts, stats = self.fold.finish(copy=copy)
        with self.profiler.stage("stock-tool facts", items=len(kept)):
            add_stock_tool_facts(self._stock_tools, kept,
                                 self.world.stock_catalog,
                                 self.world.sample_by_hash)
        campaigns = self.tail.campaigns(
            lambda _proxies: self._agg.campaigns(),
            CampaignEnricher(self.world.vt, self._stock_tools))
        return MeasurementResult(
            records=kept, campaigns=campaigns,
            profiles=dict(self.tail.profiles), verdicts=dict(verdicts),
            stats=stats, proxy_ips=set(self.tail.proxy_ips))

    # ------------------------------------------------------------------
    # durable state
    # ------------------------------------------------------------------

    def _snapshot_state(self, finalized: bool = False) -> Dict:
        fold = self.fold
        state = {
            "cursor": self._cursor,
            "finalized": finalized,
            "batch_days": self.scheduler.batch_days,
            "seed": self.world.config.seed,
            "scale": self.world.config.scale,
            # sorted by hash so the snapshot is a pure function of the
            # state, not of arrival order (two runs reaching the same
            # state write byte-identical snapshots)
            "records": _texts(fold.records, self._record_texts),
            "verdicts": _texts(fold.verdicts, self._verdict_texts),
            "stats": fold.stats,
            "confirmed": sorted(fold.confirmed),
            "pending": sorted(fold.pending.items(), key=lambda kv: kv[1]),
            "batches": self.batch_metrics,
        }
        if finalized:
            # the positive facts only: every other candidate of the
            # records has none.  Mid-run snapshots carry no table, so
            # a periodic snapshot stays a function of the fold's state.
            state["stock_tool_facts"] = {
                sha: fact for sha, fact in self._stock_tools.items()
                if fact is not None}
        return state

    def _check_plan(self, replay: JournalReplay,
                    batches: List[FeedBatch]) -> None:
        """Refuse a checkpoint written for another feed plan: the
        snapshot's stamp must match this world and window width, and
        each replayed commit must be the scheduled batch of its id (a
        journal-only checkpoint has no stamp to go by)."""
        snapshot = replay.snapshot
        if snapshot is not None and (
                snapshot.get("batch_days") != self.scheduler.batch_days
                or snapshot.get("seed") != self.world.config.seed
                or snapshot.get("scale") != self.world.config.scale):
            raise ValueError(
                "checkpoint was written for a different feed plan "
                f"(seed={snapshot.get('seed')} "
                f"scale={snapshot.get('scale')} "
                f"batch_days={snapshot.get('batch_days')}); refusing "
                "to resume")
        for batch_id, metrics in replay.commits:
            batch = batches[batch_id] if batch_id < len(batches) else None
            if (batch is None
                    or decode_date(metrics.get("start")) != batch.start
                    or decode_date(metrics.get("end")) != batch.end
                    or metrics.get("samples") != batch.num_samples):
                raise ValueError(
                    "checkpoint was written for a different feed plan "
                    f"(journaled batch {batch_id} is not the batch "
                    f"batch_days={self.scheduler.batch_days} schedules); "
                    "refusing to resume")

    def _restore(self, replay: JournalReplay,
                 batches: List[FeedBatch]) -> None:
        """Rebuild the full in-memory state from snapshot + journal."""
        self._check_plan(replay, batches)
        self._reset_state()
        fold = self.fold
        snapshot = replay.snapshot
        if snapshot is not None:
            fold.records = {record.sha256: record for record in map(
                decode_record, snapshot["records"])}
            fold.verdicts = {verdict.sha256: verdict for verdict in map(
                decode_verdict, snapshot["verdicts"])}
            fold.stats = decode_stats(snapshot["stats"])
            fold.confirmed = set(snapshot["confirmed"])
            for sha, index in snapshot["pending"]:
                fold.defer(sha, index)
            self.batch_metrics = [BatchMetrics.from_json(m)
                                  for m in snapshot["batches"]]
            self._cursor = int(snapshot["cursor"])
            if "stock_tool_facts" in snapshot:  # a finalized v2 snapshot
                self._restore_stock_tools(snapshot["stock_tool_facts"])
        # samples delivered by every batch up to the cursor
        for batch in batches[:self._cursor]:
            fold.arrive(batch.indices)
        # committed batches newer than the snapshot
        sink: List[str] = []
        for batch_id, outcomes in replay.committed:
            batch = batches[batch_id]
            fold.stats.collected += batch.num_samples
            fold.arrive(batch.indices)
            for data in outcomes:
                fold.apply(decode_outcome(data), sink)
            self._cursor = batch_id + 1
        for batch_id, metrics in replay.commits:
            self.batch_metrics.append(BatchMetrics.from_json(metrics))
        # the in-flight batch: reuse journaled hashes, reprocess the rest;
        # its replayed records still owe their recovery examination
        for data in replay.partial.get(self._cursor, []):
            outcome = decode_outcome(data)
            if outcome.kind in _STAGE1_KINDS:
                self._replayed_stage1.add(outcome.sha256)
            fold.apply(outcome, self._resume_frontier)
        # derived state is recomputed, not persisted: deterministic
        self._link(list(fold.records.values()))

    def _restore_stock_tools(self, positives: Dict[str, List[str]]) -> None:
        """The fact table of the snapshot's records: the listed facts,
        and none for every other candidate sha."""
        table = self._stock_tools
        for record in self.fold.records.values():
            table.update(dict.fromkeys(stock_tool_candidates(record)))
        for sha, (framework, version) in positives.items():
            table[sha] = (framework, version)
