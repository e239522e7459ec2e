"""Post-aggregation enrichment (§III-E "Enrichment").

Tags each campaign with information that must *not* influence grouping:
PPI botnet membership (third-party infrastructure shared by unrelated
customers), stock-mining-tool attribution via exact-hash and fuzzy-hash
matching, obfuscation status (>= 80% of samples packed/high-entropy),
activity period and pool usage.

Stock-tool attribution is a fact about one sample, not a campaign:
every driver fills a table of them (:func:`add_stock_tool_facts`) over
its kept records before it enriches.  :class:`CampaignEnricher` only
folds over that table, so enrichment reads no sample body and runs no
CTPH.
"""

from collections import Counter
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.core.aggregation import Campaign
from repro.core.profit import WalletProfile
from repro.core.records import MinerRecord
from repro.corpus.model import SampleRecord
from repro.intel.vt import VtService
from repro.osint.feeds import ppi_botnets_named
from repro.osint.stock_tools import StockToolCatalog
from repro.perf.cache import cached_ctph_many

#: a campaign is "obfuscated" when this fraction of samples is (§IV-E).
OBFUSCATED_CAMPAIGN_RATIO = 0.8

#: the paper's conservative fuzzy-hash distance for tool attribution.
STOCK_TOOL_DISTANCE = 0.1

#: one sha's stock-tool attribution: ``(framework, version)`` or None
StockToolFact = Optional[Tuple[str, str]]


def stock_tool_candidates(record: MinerRecord) -> Tuple[str, ...]:
    """The shas a record puts up for attribution: every sample it
    brings into its campaign (its own, since a sample can itself be a
    stock tool fetched from GitHub, and its parents', which are
    campaign samples whether kept or not) and the binaries it
    dropped."""
    return (record.sha256, *record.parents, *record.dropped)


def add_stock_tool_facts(
        facts: Dict[str, StockToolFact], records: Iterable[MinerRecord],
        catalog: StockToolCatalog,
        sample_lookup: Callable[[str], Optional[SampleRecord]]
) -> Dict[str, StockToolFact]:
    """Add the fact of every :func:`stock_tool_candidates` sha of
    ``records`` that ``facts`` does not hold yet, in candidate order;
    returns ``facts``.

    Exact SHA-256 hits are free.  A sha with no body, or a body outside
    the catalog's size envelope, has no fact: CTPH cannot score inputs
    whose block sizes are more than one octave apart anyway.  Every
    other body is looked up in the ``ctph`` memo once, the misses are
    hashed in one batched kernel call, and each body's CTPH is compared
    against the whole catalog with the 0.1 threshold.
    """
    size_lo, size_hi = catalog.size_range()
    bodies: Dict[str, bytes] = {}
    for record in records:
        for sha in stock_tool_candidates(record):
            if sha in facts:
                continue
            facts[sha] = None
            exact = catalog.by_hash(sha)
            if exact is not None:
                facts[sha] = exact.framework, exact.version
                continue
            sample = sample_lookup(sha)
            if sample is not None and size_lo <= len(sample.raw) <= size_hi:
                bodies[sha] = sample.raw
    for sha, fuzzy in zip(bodies, cached_ctph_many(bodies.values())):
        match = catalog.match(fuzzy, threshold=STOCK_TOOL_DISTANCE)
        if match:
            facts[sha] = match[0].framework, match[0].version
    return facts


class CampaignEnricher:
    """Adds the informative (non-grouping) annotations to campaigns.

    ``stock_tools`` maps every :func:`stock_tool_candidates` sha of the
    records it enriches to its :data:`StockToolFact`.
    """

    def __init__(self, vt: VtService,
                 stock_tools: Mapping[str, StockToolFact]) -> None:
        self._vt = vt
        self._stock_tools = stock_tools

    def enrich(self, campaign: Campaign,
               profiles: Optional[Dict[str, WalletProfile]] = None) -> None:
        """Annotate one campaign (PPI, tools, obfuscation, activity)."""
        self._tag_ppi(campaign)
        self._tag_stock_tools(campaign)
        self._tag_obfuscation(campaign)
        self._tag_activity(campaign, profiles or {})

    def enrich_all(self, campaigns: Iterable[Campaign],
                   profiles: Optional[Dict[str, WalletProfile]] = None) -> None:
        """Annotate every campaign in ``campaigns``."""
        for campaign in campaigns:
            self.enrich(campaign, profiles)

    # ------------------------------------------------------------------

    def _tag_ppi(self, campaign: Campaign) -> None:
        """PPI membership via AV labels (Virut / Ramnit / Nitol)."""
        found: Set[str] = set()
        for sha in campaign.sample_hashes:
            report = self._vt.get_report(sha)
            if report is not None:
                found |= ppi_botnets_named(report.labels())
        campaign.ppi_botnets = sorted(found)
        campaign.uses_ppi = bool(found)

    def _tag_stock_tools(self, campaign: Campaign) -> None:
        """Attribute the campaign's samples and dropped binaries to
        stock frameworks, from their facts."""
        candidates: Set[str] = set(campaign.sample_hashes)
        for record in campaign.records:
            candidates.update(record.dropped)
        frameworks: Set[str] = set()
        matches: List[tuple] = []
        for sha in sorted(candidates):
            fact = self._stock_tools[sha]
            if fact is not None:
                frameworks.add(fact[0])
                matches.append((fact[0], fact[1], sha))
        campaign.stock_tools = sorted(frameworks)
        campaign.stock_tool_matches = matches

    def _tag_obfuscation(self, campaign: Campaign) -> None:
        packers: Counter = Counter()
        obfuscated_count = 0
        for record in campaign.records:
            if record.packer:
                packers[record.packer] += 1
            if record.obfuscated:
                obfuscated_count += 1
        campaign.packers = dict(packers)
        total = max(1, len(campaign.records))
        campaign.obfuscated = (
            obfuscated_count / total >= OBFUSCATED_CAMPAIGN_RATIO
            and obfuscated_count > 0
        )

    def _tag_activity(self, campaign: Campaign,
                      profiles: Dict[str, WalletProfile]) -> None:
        firsts = [r.first_seen for r in campaign.records if r.first_seen]
        campaign.first_seen = min(firsts) if firsts else None
        campaign.last_seen = max(firsts) if firsts else None
        pools: List[str] = []
        total_xmr = 0.0
        total_usd = 0.0
        last_share = None
        for identifier in campaign.identifiers:
            profile = profiles.get(identifier)
            if profile is None:
                continue
            total_xmr += profile.total_paid
            total_usd += profile.total_usd
            for pool in profile.pools:
                if pool not in pools:
                    pools.append(pool)
            if profile.last_share and (last_share is None
                                       or profile.last_share > last_share):
                last_share = profile.last_share
        # records can also name a pool no payments were observed at
        for record in campaign.records:
            if record.pool and record.pool not in pools:
                pools.append(record.pool)
        campaign.pools_used = pools
        campaign.total_xmr = total_xmr
        campaign.total_usd = total_usd
        campaign.last_share = last_share
