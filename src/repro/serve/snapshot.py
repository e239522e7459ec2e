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
  proxies are re-derived from the record stream through the one
  result tail of :mod:`repro.core.pipeline`, the one the ingestion
  service restores through.

:class:`CheckpointIndexSource` packages the checkpoint flavour behind
the ``stamp()`` / ``build()`` protocol the snapshot watcher polls.
"""

import json
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.core.aggregation import GroupingPolicy
from repro.core.enrichment import CampaignEnricher, add_stock_tool_facts
from repro.core.pipeline import (
    MeasurementResult,
    MeasurementTail,
    PipelineStats,
)
from repro.core.profit import ProfitAnalyzer
from repro.corpus.model import SyntheticWorld
from repro.ingest.checkpoint import SNAPSHOT_NAME, CheckpointStore
from repro.ingest.service import IngestionService
from repro.scale.pipeline import ScaleResult
from repro.scale.shards import ShardedCampaignAggregator
from repro.serve.index import IntelIndex, build_index

__all__ = [
    "CheckpointIndexSource",
    "checkpoint_plan",
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


def result_from_store(world: SyntheticWorld, store) -> ScaleResult:
    """Derive a serving result straight from a columnar record store.

    The funnel and the stock-tool facts come from one streaming pass
    over the segments, and the rest from
    :class:`~repro.core.pipeline.MeasurementTail`, the tail every
    driver ends in, without ever holding the record list: profiles and
    proxies from a second pass, campaigns from the sharded aggregator,
    and enrichment per campaign through the aggregator's
    ``campaign_hook`` — before each campaign's records are dropped.
    Peak memory is the index tables, the fact table and one
    aggregation shard, not the corpus.  The result is store-backed like
    the out-of-core pipeline's, so
    :func:`repro.core.pipeline.iter_result_records` streams an index
    build straight from the segments; its campaigns carry no records.
    """
    stats = PipelineStats()

    def counted():
        for record in store.iter_records():
            stats.count_kept(record)
            yield record

    facts = add_stock_tool_facts({}, counted(), world.stock_catalog,
                                 world.sample_by_hash)
    tail = MeasurementTail(ProfitAnalyzer(world.pool_directory))
    tail.add(store.iter_records())
    enricher = CampaignEnricher(world.vt, facts)
    campaigns = tail.campaigns(
        lambda proxies: ShardedCampaignAggregator(
            world.osint, GroupingPolicy.full(), proxy_ips=proxies,
            keep_records=False,
            campaign_hook=lambda c: enricher.enrich(c, tail.profiles),
        ).aggregate_source(store.iter_records))
    return ScaleResult(store=store, campaigns=campaigns,
                       profiles=tail.profiles, stats=stats,
                       proxy_ips=tail.proxy_ips)


class CheckpointIndexSource:
    """The watcher-facing source: checkpoint dir → fresh indexes.

    ``stamp()`` fingerprints the durable files (any committed batch or
    snapshot rotation changes it); ``build()`` restores and indexes
    under the feed plan fixed at construction, so a publish reads the
    snapshot once.  Both are synchronous and run off the event loop
    thread.
    """

    def __init__(self, world: SyntheticWorld, checkpoint_dir,
                 batch_days: int) -> None:
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
