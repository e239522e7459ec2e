"""Streaming feed ingestion: incremental measurement with durable state.

The batch pipeline (:mod:`repro.core.pipeline`) answers "measure this
corpus"; this package answers "keep measuring as the feeds drop":

* :mod:`repro.ingest.feed` — replay a corpus as dated feed batches
* :mod:`repro.ingest.aggregator` — the streaming name of the union-find
  campaign core (:class:`repro.core.aggregation.CampaignAggregator`)
* :mod:`repro.ingest.checkpoint` — journal + snapshot durability
* :mod:`repro.ingest.service` — the incremental end-to-end service
* :mod:`repro.ingest.codec` — JSON codecs for the durable state

The headline invariant, enforced by the equivalence tests: after the
last batch, the service's campaigns, wallets and profit stats equal the
batch pipeline's output on the same world — and a run killed at any
point resumes to that same state without reprocessing committed work.
"""

from repro.ingest.aggregator import IncrementalAggregator
from repro.ingest.checkpoint import CheckpointStore, JournalReplay
from repro.ingest.feed import FeedBatch, FeedScheduler
from repro.ingest.service import (
    BatchMetrics,
    IngestionResult,
    IngestionService,
)

__all__ = [
    "BatchMetrics",
    "CheckpointStore",
    "FeedBatch",
    "FeedScheduler",
    "IncrementalAggregator",
    "IngestionResult",
    "IngestionService",
    "JournalReplay",
]
