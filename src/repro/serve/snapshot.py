"""Index sources: build serving indexes from durable pipeline output.

Two provenances:

* **Checkpoint directories** (:class:`repro.ingest.checkpoint.
  CheckpointStore`) — the streaming service's snapshot + journal.  A
  read-only :class:`~repro.ingest.service.IngestionService` restores
  whatever is durable (snapshot, committed batches, the in-flight
  batch's journaled outcomes) and materialises a result without
  touching the writer's state, so an index can be built *while
  ingestion is still running*.
* **Columnar record stores** (:class:`repro.scale.columnar.
  RecordStore`) — out-of-core segments.  Campaigns, profiles and
  proxies are re-derived from the record stream with the same pure
  derivations the ingestion service uses on restore.

:class:`CheckpointIndexSource` packages the checkpoint flavour behind
the ``stamp()`` / ``build()`` protocol the snapshot watcher polls.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.aggregation import Campaign, GroupingPolicy
from repro.core.enrichment import CampaignEnricher
from repro.core.pipeline import (
    MeasurementResult,
    PipelineStats,
    proxy_candidate_ip,
)
from repro.core.profit import ProfitAnalyzer, WalletProfile
from repro.core.records import MinerRecord
from repro.core.sanity import SanityVerdict
from repro.corpus.model import SyntheticWorld
from repro.ingest.aggregator import IncrementalAggregator
from repro.ingest.checkpoint import SNAPSHOT_NAME, CheckpointStore
from repro.ingest.service import IngestionService
from repro.scale.shards import ShardedCampaignAggregator
from repro.serve.index import IntelIndex, build_index

__all__ = [
    "CheckpointIndexSource",
    "StoreResult",
    "checkpoint_plan",
    "derive_result_from_records",
    "measurement_from_checkpoint",
    "result_from_store",
]


def checkpoint_plan(checkpoint_dir) -> Optional[Dict[str, Any]]:
    """Feed-plan metadata from a checkpoint's snapshot, if one exists.

    Lets ``repro serve --checkpoint DIR`` regenerate the right world
    without the caller restating ``--seed/--scale/--batch-days``.
    """
    path = Path(checkpoint_dir) / SNAPSHOT_NAME
    if not path.exists():
        return None
    with open(path, encoding="utf-8") as fh:
        snapshot = json.load(fh)
    return {
        "seed": snapshot.get("seed"),
        "scale": snapshot.get("scale"),
        "batch_days": snapshot.get("batch_days"),
        "cursor": snapshot.get("cursor"),
        "finalized": snapshot.get("finalized", False),
    }


def measurement_from_checkpoint(world: SyntheticWorld, checkpoint_dir,
                                batch_days: Optional[int] = None
                                ) -> MeasurementResult:
    """Materialise a result from whatever a checkpoint has made durable.

    ``batch_days`` defaults to the snapshot's own feed plan (falling
    back to 1 for journal-only checkpoints); a mismatched plan raises,
    exactly as resume would.
    """
    if batch_days is None:
        plan = checkpoint_plan(checkpoint_dir)
        batch_days = plan["batch_days"] if plan else 1
    service = IngestionService(world, checkpoint_dir,
                               batch_days=batch_days, resume=True,
                               fsync=False)
    service.restore_state()
    return service.current_result()


def derive_result_from_records(world: SyntheticWorld,
                               records: Iterable[MinerRecord]
                               ) -> MeasurementResult:
    """Re-derive the full result from a bare record stream.

    The same pure derivations the ingestion service replays on
    restore: pool profit profiles, proxy establishment, union-find
    campaign aggregation, enrichment.  Verdicts and funnel counters
    that need per-sample outcomes are unavailable from records alone
    and stay empty/zero.
    """
    kept = list(records)
    profit = ProfitAnalyzer(world.pool_directory)
    profiles: Dict[str, WalletProfile] = {}
    profiled = set()
    for record in kept:
        for identifier in record.identifiers:
            if identifier in profiled:
                continue
            profiled.add(identifier)
            profile = profit.profile_wallet(identifier)
            if profile.records:
                profiles[identifier] = profile
    proxies = set()
    for record in kept:
        candidate = proxy_candidate_ip(record)
        if candidate is None:
            continue
        if any(identifier in profiles
               for identifier in record.identifiers):
            proxies.add(candidate)
    agg = IncrementalAggregator(world.osint, GroupingPolicy.full())
    for record in kept:
        agg.add_record(record)
    agg.add_proxy_ips(proxies)
    campaigns = agg.campaigns()
    enricher = CampaignEnricher(world.vt, world.stock_catalog,
                                world.sample_by_hash)
    enricher.enrich_all(campaigns, profiles)
    stats = PipelineStats()
    stats.miners = sum(1 for r in kept if r.is_miner)
    stats.ancillaries = len(kept) - stats.miners
    return MeasurementResult(records=kept, campaigns=campaigns,
                             profiles=profiles, verdicts={},
                             stats=stats, proxy_ips=proxies)


@dataclass
class StoreResult:
    """A store-backed serving result: everything :func:`repro.serve.
    index.build_index` needs, with the record payload left on disk.

    :func:`repro.core.pipeline.iter_result_records` sees the ``store``
    attribute and streams straight from its columnar segments, so an
    index build over this never materialises the record list.
    Campaigns carry no records (enrichment already ran, streaming).
    """

    store: Any
    campaigns: List[Campaign]
    profiles: Dict[str, WalletProfile]
    stats: PipelineStats
    proxy_ips: Set[str]
    verdicts: Dict[str, SanityVerdict] = field(default_factory=dict)


def result_from_store(world: SyntheticWorld, store,
                      num_shards: int = 8) -> StoreResult:
    """Derive a serving result straight from a columnar record store.

    Same pure derivations as :func:`derive_result_from_records`, but
    never holding the record list: profiles and proxies come from two
    streaming passes over the segments, campaigns from the sharded
    aggregator, and enrichment runs per campaign through the aggregator's
    ``campaign_hook`` — before each campaign's records are dropped.
    Peak memory is the index tables plus one aggregation shard, not
    the corpus.
    """
    profit = ProfitAnalyzer(world.pool_directory)
    profiles: Dict[str, WalletProfile] = {}
    profiled = set()
    stats = PipelineStats()
    for record in store.iter_records():
        if record.is_miner:
            stats.miners += 1
        else:
            stats.ancillaries += 1
        for identifier in record.identifiers:
            if identifier in profiled:
                continue
            profiled.add(identifier)
            profile = profit.profile_wallet(identifier)
            if profile.records:
                profiles[identifier] = profile
    proxies: Set[str] = set()
    for record in store.iter_records():
        candidate = proxy_candidate_ip(record)
        if candidate is None:
            continue
        if any(identifier in profiles
               for identifier in record.identifiers):
            proxies.add(candidate)
    enricher = CampaignEnricher(world.vt, world.stock_catalog,
                                world.sample_by_hash)
    aggregator = ShardedCampaignAggregator(
        world.osint, GroupingPolicy.full(), proxy_ips=proxies,
        num_shards=num_shards, keep_records=False,
        campaign_hook=lambda c: enricher.enrich(c, profiles))
    campaigns = aggregator.aggregate_source(store.iter_records)
    return StoreResult(store=store, campaigns=campaigns,
                       profiles=profiles, stats=stats,
                       proxy_ips=proxies)


class CheckpointIndexSource:
    """The watcher-facing source: checkpoint dir → fresh indexes.

    ``stamp()`` fingerprints the durable files (any committed batch or
    snapshot rotation changes it); ``build()`` restores and indexes.
    Both are synchronous and run off the event loop thread.
    """

    def __init__(self, world: SyntheticWorld, checkpoint_dir,
                 batch_days: Optional[int] = None) -> None:
        self.world = world
        self.store = CheckpointStore(checkpoint_dir, fsync=False)
        self.batch_days = batch_days

    def stamp(self) -> Optional[Tuple[Tuple[str, int, int], ...]]:
        """Current durable-state fingerprint (None = nothing on disk)."""
        return self.store.stamp() or None

    def build(self, generation: int) -> IntelIndex:
        """Restore the checkpoint and build generation ``generation``."""
        result = measurement_from_checkpoint(
            self.world, self.store.directory, batch_days=self.batch_days)
        return build_index(result, generation=generation,
                           source=f"checkpoint:{self.store.directory}")
