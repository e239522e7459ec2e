"""Sharded campaign aggregation: identifier-locality front-end.

:class:`~repro.core.aggregation.CampaignAggregator` holds every record
of its record set.  At a million samples that does not fit the "flat
RSS" budget, so this front-end partitions the work by *identifier
locality*: records land in ``crc32(min(identifiers) or sha256) % K``
shards, each shard is fed to its own ``CampaignAggregator``, and
components that never touch a *boundary node* (a graph node observed
from two or more shards) are materialised — and their records freed —
before the next shard loads.

Cross-shard components are the frontier: they are buffered and glued by
a second, tiny union-find over ``(component, boundary-node)``
incidence.  Peak memory is therefore

    O(max shard) + O(frontier) + O(distinct nodes)

— the last term is the pass-1 boundary scan (a node-to-first-shard map,
~100 bytes per distinct node), the first two hold actual records.  Most
identifiers are campaign-private, so the frontier stays small; the
worst case (one giant component) degrades gracefully to the unsharded
core's footprint, never worse.

Equivalence is exact, not approximate: edges come from the shared
:func:`~repro.core.aggregation.record_attachments`, components are
deduplicated node *sets*, and
:func:`~repro.core.aggregation.finalize_campaigns` canonicalises order
and numbering — so for any record set the output is bit-identical to
the unsharded core's (property-tested in ``tests/test_scale_shards.py``
against an independent graph-cut reference).
"""

from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)
from zlib import crc32

from repro.core.aggregation import (
    Campaign,
    CampaignAggregator,
    GroupingPolicy,
    Node,
    build_campaign,
    finalize_campaigns,
    record_attachments,
)
from repro.core.records import MinerRecord
from repro.core.unionfind import UnionFind
from repro.osint.feeds import OsintFeeds

__all__ = ["ShardedCampaignAggregator", "shard_of"]

#: one buffered component: (node set, records-by-sha)
_Component = Tuple[Set[Node], Dict[str, MinerRecord]]


def shard_of(record: MinerRecord, num_shards: int) -> int:
    """Deterministic shard of a record: its smallest identifier, or its
    sha256 for identifier-less records, hashed with crc32 (NOT Python's
    ``hash`` — that is salted per process and would break resume and
    cross-run comparison)."""
    key = min(record.identifiers) if record.identifiers else record.sha256
    return crc32(key.encode("utf-8")) % num_shards


class ShardedCampaignAggregator:
    """Two-pass sharded aggregation over a re-iterable record source.

    ``keep_records=False`` clears each campaign's record list the
    moment it is built (profit/report stages that only need identifiers
    and hashes use this at the million-sample scale).
    ``campaign_hook`` runs on each campaign right after it is built —
    *before* ``keep_records=False`` strips its record list — so a
    consumer can fold over records (e.g. serving-index enrichment)
    without anything retaining them.
    """

    def __init__(self, osint: OsintFeeds,
                 policy: Optional[GroupingPolicy] = None,
                 proxy_ips: Optional[Set[str]] = None,
                 num_shards: int = 8,
                 keep_records: bool = True,
                 campaign_hook: Optional[
                     Callable[[Campaign], None]] = None) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self._osint = osint
        self._policy = policy or GroupingPolicy.full()
        self._proxy_ips = set(proxy_ips or ())
        self._num_shards = num_shards
        self._keep_records = keep_records
        self._campaign_hook = campaign_hook
        #: high-water marks for the benchmark report
        self.max_shard_records = 0
        self.max_frontier_records = 0

    # -- pass 1: boundary scan --------------------------------------------

    def _scan(self, source: Callable[[], Iterable[MinerRecord]]
              ) -> Set[Node]:
        """One streaming pass; returns the boundary-node set."""
        first_shard: Dict[Node, int] = {}
        boundary: Set[Node] = set()
        for record in source():
            shard = shard_of(record, self._num_shards)
            nodes: List[Node] = [("sample", record.sha256)] + [
                node for node, _feature in record_attachments(
                    record, self._policy, self._osint, self._proxy_ips)]
            for node in nodes:
                if first_shard.setdefault(node, shard) != shard:
                    boundary.add(node)
        return boundary

    # -- pass 2: per-shard build + frontier glue ---------------------------

    def _build_shard(self, shard: int,
                     source: Callable[[], Iterable[MinerRecord]]
                     ) -> CampaignAggregator:
        """One shard's core aggregator over one pass of the source."""
        core = CampaignAggregator(self._osint, self._policy,
                                  self._proxy_ips)
        for record in source():
            if shard_of(record, self._num_shards) == shard:
                core.add_record(record)
        return core

    def aggregate_source(self, source: Callable[[], Iterable[MinerRecord]]
                         ) -> List[Campaign]:
        """Aggregate a re-iterable record stream (e.g. a
        :meth:`~repro.scale.columnar.RecordStore.iter_records` factory).

        The source is iterated ``1 + num_shards`` times; memory never
        holds more than one shard's records plus the frontier.  Each
        shard's components come with component-filtered record dicts,
        so the frontier buffers exactly the records the glue step needs.
        """
        boundary = self._scan(source) if self._num_shards > 1 else set()
        campaigns: List[Campaign] = []
        #: buffered cross-shard components, in shard-index order
        frontier: List[_Component] = []
        frontier_records = 0
        for shard in range(self._num_shards):
            shard_records = 0
            for component, records in self._build_shard(
                    shard, source).components():
                shard_records += len(records)
                nodes = set(component)
                if nodes & boundary:
                    frontier.append((nodes, records))
                    frontier_records += len(records)
                else:
                    self._emit(nodes, records, campaigns)
            self.max_shard_records = max(self.max_shard_records,
                                         shard_records)
            self.max_frontier_records = max(self.max_frontier_records,
                                            frontier_records)

        campaigns.extend(self._glue(frontier))
        return finalize_campaigns(campaigns)

    def _glue(self, frontier: List[_Component]) -> List[Campaign]:
        """Union frontier components that share a boundary node."""
        glue: UnionFind = UnionFind()
        for index, (nodes, _records) in enumerate(frontier):
            comp = ("comp", index)
            glue.ensure(comp)
            for node in nodes:
                glue.union(comp, ("node", node))
        campaigns: List[Campaign] = []
        for group in glue.components():
            merged_nodes: Set[Node] = set()
            merged_records: Dict[str, MinerRecord] = {}
            for kind, value in group:
                if kind != "comp":
                    continue
                nodes, records = frontier[value]
                merged_nodes.update(nodes)
                merged_records.update(records)
            if merged_nodes:
                self._emit(merged_nodes, merged_records, campaigns)
        return campaigns

    def _emit(self, nodes: Set[Node], by_hash: Dict[str, MinerRecord],
              campaigns: List[Campaign]) -> None:
        campaign = build_campaign(nodes, by_hash)
        if campaign is None:
            return
        if self._campaign_hook is not None:
            self._campaign_hook(campaign)
        if not self._keep_records:
            campaign.records = []
        campaigns.append(campaign)

    # -- convenience -------------------------------------------------------

    def aggregate(self, records: Sequence[MinerRecord]) -> List[Campaign]:
        """Aggregate an in-memory record sequence (tests, small runs)."""
        return self.aggregate_source(lambda: records)
