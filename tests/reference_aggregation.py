"""Independent oracle for §III-E: the grouping graph cut with networkx.

Production aggregation is one union-find
(:class:`repro.core.aggregation.CampaignAggregator`).  This module keeps
the original graph implementation the equivalence suites compare it
against: build an explicit ``nx.Graph`` over the edges
:func:`~repro.core.aggregation.record_attachments` derives, take its
``connected_components``, and materialise them through the shared
``build_campaign`` / ``finalize_campaigns``.  It shares the edge rules
with production but none of the component bookkeeping.
"""

from typing import Iterable, List, Optional, Set

import networkx as nx

from repro.core.aggregation import (
    Campaign,
    GroupingPolicy,
    Node,
    build_campaign,
    finalize_campaigns,
    record_attachments,
)
from repro.core.records import MinerRecord
from repro.osint.feeds import OsintFeeds

__all__ = ["ReferenceAggregator"]


class ReferenceAggregator:
    """Builds the grouping graph and cuts it into campaigns.

    One-shot: :meth:`aggregate` consumes the instance.  A second call
    raises instead of silently merging both record sets into one graph.
    """

    def __init__(self, osint: OsintFeeds,
                 policy: Optional[GroupingPolicy] = None,
                 proxy_ips: Optional[Set[str]] = None) -> None:
        self._osint = osint
        self._policy = policy or GroupingPolicy.full()
        #: IPs established as mining proxies (wallet active at a known
        #: pool while the sample mined against this non-pool address).
        self._proxy_ips = proxy_ips or set()
        self.graph = nx.Graph()
        self._aggregated = False

    # ------------------------------------------------------------------

    def aggregate(self, records: Iterable[MinerRecord]) -> List[Campaign]:
        """Build the grouping graph over ``records`` and cut campaigns.

        May be called once per aggregator; the grouping graph stays
        readable on :attr:`graph` afterwards, but a repeat call raises
        :class:`RuntimeError` — it would union the new record set with
        the previous one and hand back merged campaigns.
        """
        if self._aggregated:
            raise RuntimeError(
                "aggregate() already ran on this ReferenceAggregator; "
                "build a new instance per record set")
        self._aggregated = True
        records = list(records)
        for record in records:
            self._add_record(record)
        return self._components(records)

    # ------------------------------------------------------------------

    def _add_record(self, record: MinerRecord) -> None:
        node: Node = ("sample", record.sha256)
        self.graph.add_node(node, record=record)
        for other, feature in record_attachments(
                record, self._policy, self._osint, self._proxy_ips):
            self.graph.add_edge(node, other, feature=feature)

    # ------------------------------------------------------------------

    def _components(self, records: List[MinerRecord]) -> List[Campaign]:
        by_hash = {r.sha256: r for r in records}
        campaigns: List[Campaign] = []
        for component in nx.connected_components(self.graph):
            campaign = build_campaign(component, by_hash)
            if campaign is not None:
                campaigns.append(campaign)
        return finalize_campaigns(campaigns)
