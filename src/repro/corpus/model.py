"""Data model of the synthetic world."""

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.simtime import Date
from repro.forums.corpus import ForumCorpus
from repro.intel.ha import HaService
from repro.intel.vt import AvReport, VtService
from repro.sandbox.emulator import SandboxReport
from repro.netsim.dns import DnsZone, PassiveDns, Resolver
from repro.osint.feeds import OsintFeeds
from repro.osint.stock_tools import StockToolCatalog
from repro.pools.directory import PoolDirectory
from repro.sandbox.behavior import BehaviorScript


@dataclass
class ScenarioConfig:
    """Knobs of the ecosystem generator.

    ``scale`` multiplies campaign counts relative to the paper (1.0 =
    the paper's 11,387 campaigns; the default keeps unit tests quick).
    ``include_case_studies`` adds the hand-built Freebuf and USA-138
    fixtures of §V.
    """

    seed: int = 2019
    scale: float = 0.02
    include_case_studies: bool = True
    include_junk: bool = True
    junk_ratio: float = 1.2
    mining_stride_days: int = 7
    samples_cap: int = 400


@dataclass
class GroundTruthCampaign:
    """What the generator knows that the pipeline must rediscover."""

    campaign_id: int
    actor_id: int
    identifier_kind: str            # "wallet" | "email" | "unknown"
    coin: Optional[str]             # ticker for wallet campaigns
    identifiers: List[str] = field(default_factory=list)
    pools: List[str] = field(default_factory=list)
    start: Optional[Date] = None
    end: Optional[Date] = None
    band: Optional[int] = None      # earnings band index (XMR only)
    target_xmr: float = 0.0
    actual_xmr: float = 0.0         # filled by the mining driver
    uses_proxy: bool = False
    proxy_host: Optional[str] = None
    uses_cname: bool = False
    cname_domains: List[str] = field(default_factory=list)
    uses_ppi: bool = False
    ppi_botnet: Optional[str] = None
    uses_stock_tool: bool = False
    stock_framework: Optional[str] = None
    uses_obfuscation: bool = False
    packer: Optional[str] = None
    hosting_urls: List[str] = field(default_factory=list)
    known_operation: Optional[str] = None
    updates_after_forks: bool = False
    sample_hashes: List[str] = field(default_factory=list)
    bot_ips: int = 1                # distinct infected IPs seen by pools
    label: Optional[str] = None     # human name for case-study fixtures
    fixed_sample_count: Optional[int] = None  # case studies pin this
    custom_driven: bool = False     # mining already replayed by fixture


@dataclass
class SampleRecord:
    """One binary in the synthetic feed.

    ``true_campaign_id`` is ground truth for validation only — the
    measurement pipeline never reads fields prefixed ``true_``.
    """

    sha256: str
    md5: str
    raw: bytes
    behavior: BehaviorScript
    first_seen: Optional[Date]
    source: str                      # primary feed the sample came from
    kind: str                        # "miner" | "ancillary" | "junk" | "tool"
    itw_urls: List[str] = field(default_factory=list)
    #: every feed carrying the sample (feeds overlap heavily — the
    #: paper's Appendix C); always contains ``source``.
    sources: List[str] = field(default_factory=list)
    true_campaign_id: Optional[int] = None
    true_wallets: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.sources:
            self.sources = [self.source]
        elif self.source not in self.sources:
            self.sources.insert(0, self.source)

    @property
    def size(self) -> int:
        return len(self.raw)


@dataclass
class SampleChunk:
    """One bounded slice of a streamed world (see
    :meth:`repro.corpus.generator.EcosystemGenerator.stream_chunks`).

    Holds the samples plus exactly the intel the pipeline needs to
    analyse them: their VT reports and any community sandbox (HA)
    reports, both keyed by sha256.  Chunks are disjoint and, taken
    together, reproduce the batch world sample-for-sample and
    report-for-report.
    """

    samples: List["SampleRecord"]
    reports: Dict[str, AvReport]
    ha_reports: Dict[str, SandboxReport]

    def __len__(self) -> int:
        return len(self.samples)


@dataclass
class SyntheticWorld:
    """Everything the measurement pipeline gets to see (plus ground truth)."""

    config: ScenarioConfig
    samples: List[SampleRecord]
    vt: VtService
    ha: HaService
    dns_zone: DnsZone
    resolver: Resolver
    passive_dns: PassiveDns
    pool_directory: PoolDirectory
    osint: OsintFeeds
    stock_catalog: StockToolCatalog
    ground_truth: List[GroundTruthCampaign]
    forum_corpus: Optional[ForumCorpus] = None

    def sample_by_hash(self, sha256: str) -> Optional[SampleRecord]:
        """The sample with this SHA-256, or None."""
        if not hasattr(self, "_by_hash"):
            self._by_hash: Dict[str, SampleRecord] = {
                s.sha256: s for s in self.samples
            }
        return self._by_hash.get(sha256)

    def miners(self) -> List[SampleRecord]:
        """Samples whose ground-truth kind is miner."""
        return [s for s in self.samples if s.kind == "miner"]
