"""The streaming name of the campaign aggregator.

Ingestion feeds :class:`~repro.core.aggregation.CampaignAggregator`
batch by batch through ``add_record`` / ``add_proxy_ips`` and reads
``campaigns()`` whenever it materialises a result; the core is already
incremental, so this module only keeps the name ``repro.ingest``
exports.
"""

from repro.core.aggregation import CampaignAggregator

__all__ = ["IncrementalAggregator"]

IncrementalAggregator = CampaignAggregator
