"""Campaign aggregation (§III-E): the grouping graph.

Nodes are typed resources (samples, identifiers, hosting URLs/IPs,
CNAME aliases, proxies, known operations); edges encode the six grouping
features.  Each connected component is one campaign.  A
:class:`GroupingPolicy` toggles feature classes so the ablation benches
can compare against the wallet-only baseline of prior work.

:class:`CampaignAggregator` is the one implementation of the cut: a
union-find that batch measurement, streaming ingestion, serving and
every out-of-core shard (:mod:`repro.scale.shards`) share.  The graph
is never materialised; components are tracked as records arrive.

Deliberate non-features (the paper is explicit about these):
donation wallets are excluded before edges are drawn; PPI botnet
membership and stock-tool usage never create edges; public-repo hosting
only links samples when the *full URL* matches.
"""

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple
from urllib.parse import urlparse

from repro.common.net import is_ipv4_literal
from repro.common.simtime import Date
from repro.core.records import MinerRecord
from repro.core.unionfind import UnionFind
from repro.osint.feeds import OsintFeeds

#: registrable domains treated as shared public infrastructure: hosting
#: there must not merge unrelated campaigns unless the URL is identical.
PUBLIC_REPO_DOMAINS = frozenset({
    "github.com", "amazonaws.com", "weebly.com", "google.com",
    "googleusercontent.com", "dropbox.com", "discordapp.com", "goo.gl",
    "bitbucket.org", "4sync.com", "pomf.cat", "up-00.com",
})


#: a typed node of the grouping graph: ("sample", sha256), ("id", W)...
Node = Tuple[str, str]


__all__ = [
    "Campaign",
    "CampaignAggregator",
    "GroupingPolicy",
    "build_campaign",
    "finalize_campaigns",
    "is_public_repo_host",
    "operation_for",
    "record_attachments",
]


def _registrable(host: str) -> str:
    parts = host.lower().split(".")
    return ".".join(parts[-2:]) if len(parts) >= 2 else host.lower()


def is_public_repo_host(host: str) -> bool:
    """Whether a host belongs to shared public-repo infrastructure."""
    return _registrable(host) in PUBLIC_REPO_DOMAINS


@dataclass(frozen=True)
class GroupingPolicy:
    """Which grouping features are enabled."""

    same_identifier: bool = True
    ancestors: bool = True
    hosting: bool = True
    known_operations: bool = True
    cname_aliases: bool = True
    proxies: bool = True
    exclude_donation_wallets: bool = True

    @classmethod
    def full(cls) -> "GroupingPolicy":
        return cls()

    @classmethod
    def wallet_only(cls) -> "GroupingPolicy":
        """The prior-work baseline (Hong et al. / Kharraz et al.)."""
        return cls(ancestors=False, hosting=False, known_operations=False,
                   cname_aliases=False, proxies=False)


@dataclass
class Campaign:
    """One recovered campaign (a connected component)."""

    campaign_id: int
    sample_hashes: List[str] = field(default_factory=list)
    identifiers: List[str] = field(default_factory=list)
    identifier_coins: Dict[str, Optional[str]] = field(default_factory=dict)
    cname_aliases: List[str] = field(default_factory=list)
    proxies: List[str] = field(default_factory=list)
    hosting_urls: List[str] = field(default_factory=list)
    hosting_ips: List[str] = field(default_factory=list)
    operations: List[str] = field(default_factory=list)
    records: List[MinerRecord] = field(default_factory=list)

    # filled by enrichment / profit stages
    total_xmr: float = 0.0
    total_usd: float = 0.0
    pools_used: List[str] = field(default_factory=list)
    first_seen: Optional[Date] = None
    last_seen: Optional[Date] = None
    last_share: Optional[Date] = None
    uses_ppi: bool = False
    ppi_botnets: List[str] = field(default_factory=list)
    stock_tools: List[str] = field(default_factory=list)
    #: (framework, version, sample sha) for every attributed tool build
    stock_tool_matches: List[tuple] = field(default_factory=list)
    obfuscated: bool = False
    packers: Dict[str, int] = field(default_factory=dict)

    @property
    def num_samples(self) -> int:
        return len(self.sample_hashes)

    @property
    def num_wallets(self) -> int:
        return len(self.identifiers)

    @property
    def coins(self) -> Set[str]:
        return {c for c in self.identifier_coins.values() if c}

    @property
    def miner_records(self) -> List[MinerRecord]:
        return [r for r in self.records if r.is_miner]

    @property
    def active(self) -> bool:
        import datetime
        return (self.last_share is not None
                and self.last_share >= datetime.date(2019, 4, 1))


def operation_for(record: MinerRecord,
                  osint: OsintFeeds) -> Optional[str]:
    """Known-operation attribution: IoC hash, wallet, or C&C domain."""
    operation = osint.operation_for_sample(record.sha256)
    if operation is not None:
        return operation.name
    for identifier in record.identifiers:
        operation = osint.operation_for_wallet(identifier)
        if operation is not None:
            return operation.name
    for domain in record.dns_rr:
        operation = osint.operation_for_domain(domain)
        if operation is not None:
            return operation.name
    return None


def record_attachments(record: MinerRecord, policy: GroupingPolicy,
                       osint: OsintFeeds,
                       proxy_ips: Set[str]) -> List[Tuple[Node, str]]:
    """The grouping edges one record contributes, as (node, feature).

    This is the single source of truth for §III-E's six features: the
    :class:`CampaignAggregator` unions along these edges, and the
    sharded front-end's boundary scan walks the same node lists.

    The hosting rule is applied exactly as the paper states it: link on
    the exact URL (parameters included), or on the hosting *IP* when the
    URL addresses a bare IP rather than a (possibly shared) domain.
    """
    out: List[Tuple[Node, str]] = []
    if policy.same_identifier:
        for identifier in record.identifiers:
            if (policy.exclude_donation_wallets
                    and osint.is_donation_wallet(identifier)):
                continue
            out.append((("id", identifier), "same_identifier"))
    if policy.ancestors:
        for parent in record.parents:
            out.append((("sample", parent), "ancestor"))
        for child in record.dropped:
            out.append((("sample", child), "ancestor"))
    if policy.hosting:
        for url in record.itw_urls:
            out.append((("url", url), "hosting"))
            host = urlparse(url).hostname or ""
            if is_ipv4_literal(host):
                out.append((("hostip", host), "hosting"))
    if policy.known_operations:
        operation = operation_for(record, osint)
        if operation is not None:
            out.append((("op", operation), "known_operation"))
    if policy.cname_aliases:
        for alias in record.cname_aliases:
            out.append((("cname", alias), "cname"))
    if policy.proxies and record.dst_ip in proxy_ips:
        out.append((("proxy", record.dst_ip), "proxy"))
    return out


def build_campaign(component: Iterable[Node],
                   by_hash: Dict[str, MinerRecord]) -> Optional[Campaign]:
    """Materialise one connected component into a :class:`Campaign`.

    Returns None for infrastructure-only fragments (no miner sample).
    All member lists come out sorted, so two aggregators producing the
    same components produce *equal* campaigns regardless of the order
    nodes entered their graphs.
    """
    samples = sorted(sha for kind, sha in component if kind == "sample")
    miner_records = [
        by_hash[sha] for sha in samples
        if sha in by_hash and by_hash[sha].is_miner
    ]
    if not miner_records:
        return None  # infrastructure-only fragments are not campaigns
    campaign = Campaign(campaign_id=0)
    campaign.sample_hashes = samples
    campaign.records = [by_hash[sha] for sha in samples if sha in by_hash]
    for kind, value in component:
        if kind == "id":
            campaign.identifiers.append(value)
        elif kind == "cname":
            campaign.cname_aliases.append(value)
        elif kind == "proxy":
            campaign.proxies.append(value)
        elif kind == "url":
            campaign.hosting_urls.append(value)
        elif kind == "hostip":
            campaign.hosting_ips.append(value)
        elif kind == "op":
            campaign.operations.append(value)
    campaign.identifiers.sort()
    campaign.cname_aliases.sort()
    campaign.proxies.sort()
    campaign.hosting_urls.sort()
    campaign.hosting_ips.sort()
    campaign.operations.sort()
    for record in campaign.records:
        for identifier, coin in zip(record.identifiers,
                                    record.identifier_coins):
            campaign.identifier_coins.setdefault(identifier, coin)
    return campaign


def finalize_campaigns(campaigns: List[Campaign]) -> List[Campaign]:
    """Canonical campaign ordering and numbering: biggest first, ties
    broken by the (sorted) sample-hash list, so the output is a pure
    function of the graph — independent of component discovery order."""
    campaigns.sort(key=lambda c: (-c.num_samples, c.sample_hashes))
    for index, campaign in enumerate(campaigns, start=1):
        campaign.campaign_id = index
    return campaigns


class CampaignAggregator:
    """Union-find over samples and infrastructure nodes: the one
    implementation of §III-E's component cut.

    Records arrive one at a time through :meth:`add_record`; each
    contributes the edges :func:`record_attachments` derives, and a
    :class:`~repro.core.unionfind.UnionFind` forest tracks components
    with near-constant-time merges.  Grouping is monotone — adding
    records or proxy IPs only merges components — which is what makes
    union-find sufficient.  The one retroactive feature is the proxy
    rule: an IP may be established as a proxy *after* records that mined
    against it arrived, so sample nodes are indexed by destination IP
    and :meth:`add_proxy_ips` unions the backlog.

    The batch pipeline calls :meth:`aggregate` once on a fresh
    instance; ingestion feeds records and proxies batch by batch and
    reads :meth:`campaigns` at any point;
    :class:`~repro.scale.shards.ShardedCampaignAggregator` builds one
    instance per shard and reads :meth:`components`.
    """

    def __init__(self, osint: OsintFeeds,
                 policy: Optional[GroupingPolicy] = None,
                 proxy_ips: Optional[Set[str]] = None) -> None:
        self._osint = osint
        self._policy = policy or GroupingPolicy.full()
        #: IPs established as mining proxies (wallet active at a known
        #: pool while the sample mined against this non-pool address).
        self._proxy_ips: Set[str] = set(proxy_ips or ())
        #: records by sha256, in arrival order
        self._records: Dict[str, MinerRecord] = {}
        #: node order doubles as insertion order
        self._forest: UnionFind = UnionFind()
        #: sample nodes by the destination IP their record mined against
        self._by_dst_ip: Dict[str, List[Node]] = {}

    # -- ingestion ---------------------------------------------------------

    def aggregate(self, records: Iterable[MinerRecord]) -> List[Campaign]:
        """Feed ``records`` to an empty aggregator and cut campaigns.

        One-shot: on an aggregator that already holds records this
        raises :class:`RuntimeError` instead of silently merging both
        record sets into one partition (streams go through
        :meth:`add_record`).
        """
        if self._records:
            raise RuntimeError(
                "aggregate() already ran on this CampaignAggregator; "
                "build a new instance per record set (the partition "
                "would otherwise merge both sets), or feed streams "
                "through add_record()")
        for record in records:
            self.add_record(record)
        return self.campaigns()

    def add_record(self, record: MinerRecord) -> int:
        """Ingest one record's nodes and edges; returns merges caused.

        Records are keyed by sha256 and must arrive at most once — the
        ingestion service deduplicates upstream.
        """
        if record.sha256 in self._records:
            raise ValueError(f"duplicate record {record.sha256}")
        forest = self._forest
        before = forest.merges
        node: Node = ("sample", record.sha256)
        forest.ensure(node)
        for other, _feature in record_attachments(
                record, self._policy, self._osint, self._proxy_ips):
            forest.union(node, other)
        if self._policy.proxies and record.dst_ip is not None:
            # indexed regardless of current proxy status: the IP may be
            # established as a proxy by a later batch.
            self._by_dst_ip.setdefault(record.dst_ip, []).append(node)
        self._records[record.sha256] = record
        return forest.merges - before

    def add_proxy_ips(self, ips: Iterable[str]) -> int:
        """Register proxies, retroactively linking earlier records.

        Every already-ingested record that mined against one of these
        IPs gains its proxy edge now — the same edge it would have got
        with the full proxy set up front.  Returns the number of
        component merges this caused.
        """
        before = self._forest.merges
        for ip in ips:
            if ip in self._proxy_ips:
                continue
            self._proxy_ips.add(ip)
            if not self._policy.proxies:
                continue
            for node in self._by_dst_ip.get(ip, []):
                self._forest.union(node, ("proxy", ip))
        return self._forest.merges - before

    # -- materialisation ---------------------------------------------------

    def components(self) -> Iterator[
            Tuple[List[Node], Dict[str, MinerRecord]]]:
        """Connected components in first-node insertion order, each with
        the records of its own sample nodes (all
        :func:`build_campaign` looks up)."""
        records = self._records
        for nodes in self._forest.components():
            yield nodes, {sha: records[sha] for kind, sha in nodes
                          if kind == "sample" and sha in records}

    def campaigns(self) -> List[Campaign]:
        """Materialise the current campaign set (non-destructive)."""
        campaigns = []
        for nodes, records in self.components():
            campaign = build_campaign(nodes, records)
            if campaign is not None:
                campaigns.append(campaign)
        return finalize_campaigns(campaigns)
