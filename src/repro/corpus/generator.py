"""The ecosystem generator: actors, campaigns, samples, infrastructure.

Generation proceeds world-first: pool DNS, stock-tool catalog and OSINT
feeds are materialised, then campaigns are drawn per identifier type
with the calibrated distributions, then each campaign emits binaries
(with behaviour scripts, droppers, hosting URLs, packers), and finally
the mining driver replays every campaign's hashrate against the pool
simulators so that pool-side payment ledgers exist for profit analysis.
"""

import datetime
import hashlib
from itertools import accumulate
from typing import Dict, Iterator, List, Optional, Tuple

from repro.binfmt.codegen import pseudo_code
from repro.binfmt.entropy import looks_obfuscated
from repro.binfmt.format import ExecutableKind, build_binary
from repro.binfmt.packers import CUSTOM_CRYPTER, PACKERS, identify_packer, pack
from repro.common.rng import DeterministicRNG
from repro.common.simtime import (
    POW_FORK_DATES,
    SIM_END,
    Date,
    add_days,
    clamp,
    pow_era,
)
from repro.corpus import distributions as dist
from repro.corpus.driver import MiningDriver
from repro.corpus.model import (
    GroundTruthCampaign,
    SampleChunk,
    SampleRecord,
    ScenarioConfig,
    SyntheticWorld,
)
from repro.forums.corpus import generate_forum_corpus
from repro.intel.ha import HaService
from repro.intel.vt import AV_VENDORS, AvReport, VtService
from repro.netsim.dns import DnsZone, PassiveDns, Resolver
from repro.netsim.ipspace import IpAllocator
from repro.osint.feeds import OsintFeeds
from repro.osint.stock_tools import StockToolCatalog
from repro.pools.directory import PoolDirectory, default_directory
from repro.sandbox.behavior import (
    BehaviorScript,
    CheckSandbox,
    DnsQuery,
    DropFile,
    HttpGet,
    SpawnProcess,
    StratumSession,
)
from repro.sandbox.emulator import Sandbox, SandboxEnvironment
from repro.wallets.addresses import WalletFactory

_XMR_END = datetime.date(2019, 4, 30)

#: typical per-bot CryptoNight CPU hashrate (H/s) used to convert a
#: campaign's hashrate into "distinct infected IPs" seen by pools.
_HASHRATE_PER_BOT = 100.0


def _cum(weights) -> Tuple[float, ...]:
    """The running sums ``random.choices`` builds from ``weights``."""
    return tuple(accumulate(weights))


# Invariant per-sample distribution setup, hoisted out of the emission
# loops: re-deriving these name/weight lists on every draw dominated the
# generator profile without changing a single draw (the RNG consumes
# values, not the lists they come from).  Weights are kept as the running
# sums random.choices would build from them on every call; passed as
# ``cum_weights`` they draw exactly what ``weights`` draws.
_PPI_NAMES = tuple(n for n, _ in dist.PPI_WEIGHTS)
_PPI_CUM = _cum(w for _, w in dist.PPI_WEIGHTS)
_STOCK_TOOL_NAMES = tuple(n for n, _ in dist.STOCK_TOOL_WEIGHTS)
_STOCK_TOOL_CUM = _cum(w for _, w in dist.STOCK_TOOL_WEIGHTS)
_PACKER_NAMES = tuple(n for n, _ in dist.PACKER_WEIGHTS)
_PACKER_CUM = _cum(w for _, w in dist.PACKER_WEIGHTS)
_WALLET_COUNTS = tuple(c for c, _ in dist.WALLETS_PER_CAMPAIGN_P)
_WALLET_COUNT_CUM = _cum(w for _, w in dist.WALLETS_PER_CAMPAIGN_P)
_XMR_POOL_NAMES = tuple(n for n, _ in dist.XMR_POOL_WEIGHTS)
_XMR_POOL_CUM = _cum(w for _, w in dist.XMR_POOL_WEIGHTS)
_EMAIL_POOL_NAMES = tuple(n for n, _ in dist.EMAIL_POOL_WEIGHTS)
_EMAIL_POOL_CUM = _cum(w for _, w in dist.EMAIL_POOL_WEIGHTS)
_HOSTING_NAMES = tuple(d for d, _, _ in dist.HOSTING_DOMAINS)
_HOSTING_CUM = _cum(w for _, w, _ in dist.HOSTING_DOMAINS)
_HOSTING_PUBLIC = {d: p for d, _, p in dist.HOSTING_DOMAINS}
#: (years, running sums) per earnings band
_BAND_START_YEARS = tuple((tuple(years), _cum(years.values()))
                          for years in dist.BAND_START_YEAR)
_BTC_YEARS = tuple(dist.BTC_SAMPLES_PER_YEAR)
_BTC_YEAR_CUM = _cum(dist.BTC_SAMPLES_PER_YEAR.values())
_ALT_YEARS = (2016, 2017, 2018, 2019)
_ALT_YEAR_CUM = _cum((0.1, 0.5, 0.35, 0.05))
_EMAIL_YEARS = (2014, 2015, 2016, 2017, 2018)
_EMAIL_YEAR_CUM = _cum((0.05, 0.1, 0.2, 0.45, 0.2))
_UNKNOWN_YEARS = (2016, 2017, 2018)
_UNKNOWN_YEAR_CUM = _cum((0.2, 0.5, 0.3))
_SOURCES = ("Virus Total", "Palo Alto Networks", "Hybrid Analysis",
            "Virus Share")
_SOURCE_CUM = _cum((0.61, 0.385, 0.004, 0.001))
#: a VT detection lags first sight by randint(0, 120) days
_LAG_DAYS = tuple(datetime.timedelta(days=d) for d in range(121))

_AV_VENDOR_LIST = list(AV_VENDORS)
_MINER_PORTS = (3333, 4444, 5555, 7777, 8080)
_BTC_POOLS = ("50btc", "slushpool", "btcdig", "f2pool", "suprnova")


def _hex2(bits: int) -> str:
    """``randbytes(2).hex()`` from the ``getrandbits(64)`` that makes it.

    ``randbytes(2)`` keeps the top byte of each 32-bit word of that draw,
    low word first.
    """
    return f"{(bits >> 24) & 255:02x}{bits >> 56:02x}"


class EcosystemGenerator:
    """Deterministic generator for a full synthetic ecosystem."""

    def __init__(self, config: Optional[ScenarioConfig] = None) -> None:
        self.config = config or ScenarioConfig()
        self.rng = DeterministicRNG(self.config.seed)
        self.wallets = WalletFactory(self.rng.substream("actor-wallets"))
        self.ips = IpAllocator(self.rng.substream("ips"))
        self.dns = DnsZone()
        self.resolver = Resolver(self.dns)
        self.passive_dns = PassiveDns(self.dns)
        self.pools: PoolDirectory = default_directory()
        self.stock = StockToolCatalog(self.rng.substream("tools"))
        self.osint = OsintFeeds()
        self.vt = VtService()
        self.ha = HaService()
        self.samples: List[SampleRecord] = []
        self.campaigns: List[GroundTruthCampaign] = []
        self._campaign_counter = 0
        self._sample_counter = 0
        self._tool_drop_hashes: Dict[str, str] = {}  # tool sha -> emitted
        #: every sha256 ever registered; replaces the per-emission scan
        #: over self.samples (which streaming mode drains anyway)
        self._seen_hashes: set = set()
        self._parent_links: Dict[str, List[str]] = {}
        self._hosting_owner: Dict[str, int] = {}
        self._skeleton_built = False

    # ------------------------------------------------------------------
    # top level
    # ------------------------------------------------------------------

    def generate(self) -> SyntheticWorld:
        """Build the full synthetic world (campaigns, samples, intel)."""
        self._setup_world()
        self._generate_wallet_campaigns()
        self._generate_email_campaigns()
        self._generate_unknown_campaigns()
        if self.config.include_case_studies:
            self._add_case_studies()
        for campaign in self.campaigns:
            self._emit_campaign_samples(campaign)
        self._add_pre2014_reuse_fixture()
        self._assign_known_operations()
        MiningDriver(self).run()
        if self.config.include_junk:
            self._emit_junk()
        self._publish_intel()
        world = SyntheticWorld(
            config=self.config,
            samples=self.samples,
            vt=self.vt,
            ha=self.ha,
            dns_zone=self.dns,
            resolver=self.resolver,
            passive_dns=self.passive_dns,
            pool_directory=self.pools,
            osint=self.osint,
            stock_catalog=self.stock,
            ground_truth=self.campaigns,
            forum_corpus=generate_forum_corpus(
                self.rng.substream("forums"),
                scale=max(0.25, self.config.scale * 5),
            ),
        )
        return world

    # ------------------------------------------------------------------
    # streaming mode
    # ------------------------------------------------------------------

    def build_skeleton(self) -> None:
        """Campaign-level world state only — no sample bodies.

        Builds everything :meth:`stream_chunks` needs up front: DNS,
        catalogs, every campaign's ground truth, the case studies, and
        the pool-side payment ledgers (the mining driver reads only
        campaign fields and its own keyed substreams, so replaying it
        before emission draws exactly what the batch path draws after).
        Idempotent; an instance supports either :meth:`generate` or the
        streaming path, not both.
        """
        if self._skeleton_built:
            return
        self._skeleton_built = True
        self._setup_world()
        self._generate_wallet_campaigns()
        self._generate_email_campaigns()
        self._generate_unknown_campaigns()
        if self.config.include_case_studies:
            self._add_case_studies()
        MiningDriver(self).run()

    def stream_chunks(self, chunk_samples: int = 4096,
                      keep_sample_hashes: bool = True,
                      ) -> Iterator[SampleChunk]:
        """Yield the batch world in bounded chunks, never holding it.

        Emits campaigns in batch order (identical draw sequence), but
        builds each sample's VT/HA intel lazily at yield time from its
        per-sample ``intel:{sha}`` substream, so the union of all
        chunks equals :meth:`generate`'s world as sha-keyed maps.  The
        first three XMR campaigns that emit miners are withheld until
        the pre-2014 reuse fixture has added its parent links to them,
        preserving report equality; known-operation hash IoCs are
        published before the owning campaign's samples are yielded,
        exactly as a batch consumer would observe them.

        ``keep_sample_hashes=False`` drops per-campaign sample-hash
        ground truth once a campaign has been emitted (fixture targets
        and operation campaigns excepted), bounding skeleton memory by
        campaign count rather than sample count.
        """
        self.build_skeleton()
        op_for_campaign: Dict[int, object] = {}
        for operation, campaign in self._known_operation_pairs():
            campaign.known_operation = operation.name
            operation.wallets.update(campaign.identifiers[:2])
            operation.domains.update(campaign.cname_domains[:1])
            op_for_campaign[campaign.campaign_id] = operation
        whitelist = self.stock.whitelist_hashes()
        sandbox = Sandbox(self.resolver, SandboxEnvironment(
            analysis_date=datetime.date(2018, 9, 1)))

        def build_chunk(samples: List[SampleRecord]) -> SampleChunk:
            reports: Dict[str, AvReport] = {}
            ha_reports: Dict[str, object] = {}
            for sample in samples:
                rng = self.rng.substream(f"intel:{sample.sha256}")
                reports[sample.sha256] = self._make_vt_report(
                    rng, sample, whitelist)
                self._parent_links.pop(sample.sha256, None)
                if sample.kind == "miner" and rng.bernoulli(0.03):
                    ha_reports[sample.sha256] = sandbox.run(
                        sample.sha256, sample.behavior)
            return SampleChunk(samples=samples, reports=reports,
                               ha_reports=ha_reports)

        fixture_pool: List[GroundTruthCampaign] = []
        fixture_miners: Dict[int, List[str]] = {}
        held: List[List[SampleRecord]] = []
        pending: List[SampleRecord] = []

        for campaign in self.campaigns:
            self._emit_campaign_samples(campaign)
            emitted, self.samples = self.samples, []
            withheld = (len(fixture_pool) < 3 and campaign.coin == "XMR"
                        and any(s.kind == "miner" for s in emitted))
            if withheld:
                # candidate fixture target: its miners may gain parent
                # links (and its op-IoC slice may grow) once the fixture
                # exists, so emission and IoC publication both wait.
                fixture_pool.append(campaign)
                fixture_miners[campaign.campaign_id] = [
                    s.sha256 for s in emitted if s.kind == "miner"]
                held.append(emitted)
                continue
            operation = op_for_campaign.get(campaign.campaign_id)
            if operation is not None:
                self._publish_operation_hashes(operation, campaign)
            elif not keep_sample_hashes:
                campaign.sample_hashes = []
            pending.extend(emitted)
            while len(pending) >= chunk_samples:
                yield build_chunk(pending[:chunk_samples])
                del pending[:chunk_samples]

        fixture = self._emit_pre2014_fixture(fixture_pool, fixture_miners)
        self.samples = []
        for campaign, emitted in zip(fixture_pool, held):
            operation = op_for_campaign.get(campaign.campaign_id)
            if operation is not None:
                self._publish_operation_hashes(operation, campaign)
            pending.extend(emitted)
        pending.extend(fixture)
        while len(pending) >= chunk_samples:
            yield build_chunk(pending[:chunk_samples])
            del pending[:chunk_samples]

        if self.config.include_junk:
            for record in self._iter_junk():
                pending.append(record)
                self.samples.clear()
                if len(pending) >= chunk_samples:
                    yield build_chunk(pending[:chunk_samples])
                    del pending[:chunk_samples]
        if pending:
            yield build_chunk(pending)

    # ------------------------------------------------------------------
    # world setup
    # ------------------------------------------------------------------

    def _setup_world(self) -> None:
        """Give every known pool stable A records."""
        for pool in self.pools.pools():
            for domain in pool.config.domains:
                self.dns.add_a(domain, self.ips.allocate(f"pool:{pool.config.name}"))
        for wallet in self.stock.donation_wallets():
            self.osint.whitelist_donation_wallet(wallet)

    def _next_campaign_id(self) -> int:
        self._campaign_counter += 1
        return self._campaign_counter

    # ------------------------------------------------------------------
    # campaign synthesis
    # ------------------------------------------------------------------

    def _scaled(self, paper_count: int, minimum: int = 1) -> int:
        return max(minimum, round(paper_count * self.config.scale))

    def _generate_wallet_campaigns(self) -> None:
        for ticker, paper_count in dist.CAMPAIGNS_PER_CURRENCY.items():
            count = self._scaled(paper_count, minimum=1 if paper_count < 50 else 2)
            if ticker == "XMR":
                self._generate_xmr_campaigns(count)
            else:
                for _ in range(count):
                    self.campaigns.append(self._make_altcoin_campaign(ticker))

    def _generate_xmr_campaigns(self, count: int) -> None:
        """Allocate campaigns to earnings bands deterministically.

        Proportional allocation (largest-remainder) instead of sampling:
        at small scales a sampled composition of the heavy-tail bands
        would dominate total-earnings variance.
        """
        rng = self.rng.substream("xmr-campaigns")
        band_weights = [c for _, _, c in dist.XMR_BAND_COUNTS]
        total_weight = sum(band_weights)
        quotas = [count * w / total_weight for w in band_weights]
        counts = [int(q) for q in quotas]
        remainders = sorted(range(4), key=lambda b: quotas[b] - counts[b],
                            reverse=True)
        for band in remainders:
            if sum(counts) >= count:
                break
            counts[band] += 1
        # guarantee at least one campaign in each tail band when the
        # scenario is big enough to have a tail at all
        for band in (3, 2, 1):
            if counts[band] == 0 and counts[0] > 4:
                counts[band] += 1
                counts[0] -= 1
        for band in range(4):
            for _ in range(counts[band]):
                self.campaigns.append(self._make_xmr_campaign(rng, band))

    def _make_xmr_campaign(self, rng: DeterministicRNG,
                           band: int) -> GroundTruthCampaign:
        campaign = GroundTruthCampaign(
            campaign_id=self._next_campaign_id(),
            actor_id=self._campaign_counter,
            identifier_kind="wallet",
            coin="XMR",
            band=band,
        )
        # identifiers: mostly standard addresses; some operators use
        # subaddresses ('8...') to segment their botnets.  The variant
        # choice draws from its own substream so it cannot perturb the
        # campaign stream (stable stream splitting).
        n_wallets = self._sample_wallet_count(rng)
        sub_rng = self.rng.substream(f"subaddr:{campaign.campaign_id}")
        campaign.identifiers = [
            self.wallets.new_address(
                "XMR_SUB" if sub_rng.bernoulli(0.10) else "XMR")
            for _ in range(n_wallets)
        ]
        # activity period
        campaign.start, campaign.end, campaign.updates_after_forks = (
            self._sample_activity(rng, band)
        )
        # earnings target (log-uniform within band); a slice of campaigns
        # never shows up at transparent pools at all.
        low, high, _ = dist.XMR_BAND_COUNTS[band]
        low = max(low, 0.05)
        if rng.bernoulli(dist.XMR_NO_PAYMENT_FRACTION) and band == 0:
            campaign.target_xmr = 0.0
        else:
            campaign.target_xmr = rng.lognormal_median(
                dist.XMR_BAND_MEDIAN[band], 0.7)
            campaign.target_xmr = min(max(campaign.target_xmr, low),
                                      high * 0.999)
        # pools
        campaign.pools = self._sample_pools(rng, band)
        # infrastructure / stealth by band
        campaign.uses_ppi = rng.bernoulli(dist.BAND_FEATURES["ppi"][band])
        if campaign.uses_ppi:
            campaign.ppi_botnet = rng.choices(_PPI_NAMES,
                                              cum_weights=_PPI_CUM)[0]
        campaign.uses_stock_tool = rng.bernoulli(
            dist.BAND_FEATURES["stock_tool"][band])
        if campaign.uses_stock_tool:
            campaign.stock_framework = rng.choices(
                _STOCK_TOOL_NAMES, cum_weights=_STOCK_TOOL_CUM)[0]
        campaign.uses_obfuscation = rng.bernoulli(
            dist.BAND_FEATURES["obfuscation"][band])
        if campaign.uses_obfuscation or rng.bernoulli(0.60):
            campaign.packer = self._pick_packer(rng)
        campaign.uses_cname = rng.bernoulli(dist.BAND_FEATURES["cname"][band])
        if campaign.uses_cname:
            self._setup_cname(rng, campaign)
        campaign.uses_proxy = rng.bernoulli(dist.BAND_FEATURES["proxy"][band])
        if campaign.uses_proxy:
            campaign.proxy_host = self.ips.allocate(
                f"proxy:{campaign.campaign_id}")
        return campaign

    def _sample_wallet_count(self, rng: DeterministicRNG) -> int:
        return rng.choices(_WALLET_COUNTS,
                           cum_weights=_WALLET_COUNT_CUM)[0]

    def _sample_activity(self, rng: DeterministicRNG,
                         band: int) -> Tuple[Date, Date, bool]:
        years, cum = _BAND_START_YEARS[band]
        start_year = rng.choices(years, cum_weights=cum)[0]
        start = datetime.date(start_year, rng.randint(1, 12),
                              rng.randint(1, 28))
        # Monero launched 2014-04-18; no campaign can pre-date the coin.
        start = clamp(start, datetime.date(2014, 5, 1), _XMR_END)
        # natural lifetime grows with band (Table XI "Years" rows)
        median_days = [240, 480, 700, 1500][band]
        lifetime = int(rng.lognormal_median(median_days, 0.5))
        natural_end = clamp(add_days(start, max(lifetime, 30)),
                            start, _XMR_END)
        updates = rng.bernoulli(dist.BAND_FORK_UPDATE_PROB[band])
        end = natural_end
        if not updates:
            # die at the first PoW fork inside the activity window
            for fork in POW_FORK_DATES:
                if start < fork < natural_end:
                    end = fork
                    break
        return start, end, updates

    def _sample_pools(self, rng: DeterministicRNG, band: int) -> List[str]:
        names = _XMR_POOL_NAMES
        if rng.bernoulli(dist.BAND_SINGLE_POOL_PROB[band]):
            n_pools = 1
        else:
            low, high = dist.BAND_POOL_COUNT[band]
            n_pools = rng.randint(max(2, low), max(2, high))
        chosen: List[str] = []
        while len(chosen) < min(n_pools, len(names)):
            pick = rng.choices(names, cum_weights=_XMR_POOL_CUM)[0]
            if pick not in chosen:
                chosen.append(pick)
        return chosen

    def _setup_cname(self, rng: DeterministicRNG,
                     campaign: GroundTruthCampaign) -> None:
        """Register domain aliases hiding the campaign's pools."""
        actor_domain = f"c{campaign.campaign_id}-{rng.hexbytes(3)}.info"
        n_aliases = 1 if rng.bernoulli(0.8) else 2
        for i in range(n_aliases):
            alias = f"xmr{i}.{actor_domain}" if i else f"x.{actor_domain}"
            target_pool = self.pools.get(campaign.pools[0])
            self.dns.add_cname(alias, target_pool.config.domains[0],
                               valid_from=campaign.start or SIM_END)
            campaign.cname_domains.append(alias)

    def _make_altcoin_campaign(self, ticker: str) -> GroundTruthCampaign:
        rng = self.rng.substream(f"alt:{ticker}:{self._campaign_counter}")
        campaign = GroundTruthCampaign(
            campaign_id=self._next_campaign_id(),
            actor_id=self._campaign_counter,
            identifier_kind="wallet",
            coin=ticker,
        )
        campaign.identifiers = [
            self.wallets.new_address(ticker)
            for _ in range(self._sample_wallet_count(rng))
        ]
        if ticker == "BTC":
            year = rng.choices(_BTC_YEARS, cum_weights=_BTC_YEAR_CUM)[0]
            campaign.pools = [rng.choice(_BTC_POOLS)]
        else:
            year = rng.choices(_ALT_YEARS, cum_weights=_ALT_YEAR_CUM)[0]
            campaign.pools = ["etn-pool"] if ticker == "ETN" else []
        start = datetime.date(year, rng.randint(1, 12), rng.randint(1, 28))
        campaign.start = clamp(start)
        campaign.end = clamp(add_days(campaign.start,
                                      rng.randint(40, 500)))
        if rng.bernoulli(0.5):
            campaign.packer = self._pick_packer(rng)
        return campaign

    @staticmethod
    def _pick_packer(rng: DeterministicRNG) -> str:
        return rng.choices(_PACKER_NAMES, cum_weights=_PACKER_CUM)[0]

    def _generate_email_campaigns(self) -> None:
        rng = self.rng.substream("email-campaigns")
        count = self._scaled(dist.EMAIL_CAMPAIGNS, minimum=5)
        for _ in range(count):
            campaign = GroundTruthCampaign(
                campaign_id=self._next_campaign_id(),
                actor_id=self._campaign_counter,
                identifier_kind="email",
                coin=None,
            )
            campaign.identifiers = [self.wallets.new_email()]
            campaign.pools = [rng.choices(_EMAIL_POOL_NAMES,
                                          cum_weights=_EMAIL_POOL_CUM)[0]]
            if rng.bernoulli(0.55):
                campaign.packer = self._pick_packer(rng)
            year = rng.choices(_EMAIL_YEARS,
                               cum_weights=_EMAIL_YEAR_CUM)[0]
            campaign.start = datetime.date(year, rng.randint(1, 12),
                                           rng.randint(1, 28))
            campaign.end = clamp(add_days(campaign.start,
                                          rng.randint(30, 400)))
            self.campaigns.append(campaign)

    def _generate_unknown_campaigns(self) -> None:
        rng = self.rng.substream("unknown-campaigns")
        count = self._scaled(dist.UNKNOWN_CAMPAIGNS, minimum=2)
        for _ in range(count):
            campaign = GroundTruthCampaign(
                campaign_id=self._next_campaign_id(),
                actor_id=self._campaign_counter,
                identifier_kind="unknown",
                coin=None,
            )
            campaign.identifiers = [self.wallets.new_username()]
            # Private/unknown pool: a domain the directory does not know.
            private = f"pool.c{campaign.campaign_id}-priv.xyz"
            self.dns.add_a(private, self.ips.allocate(f"priv:{private}"))
            campaign.pools = []
            campaign.hosting_urls = []
            campaign.cname_domains = [private]
            if rng.bernoulli(0.55):
                campaign.packer = self._pick_packer(rng)
            year = rng.choices(_UNKNOWN_YEARS,
                               cum_weights=_UNKNOWN_YEAR_CUM)[0]
            campaign.start = datetime.date(year, rng.randint(1, 12),
                                           rng.randint(1, 28))
            campaign.end = clamp(add_days(campaign.start,
                                          rng.randint(30, 300)))
            self.campaigns.append(campaign)

    def _add_case_studies(self) -> None:
        from repro.corpus.case_studies import (
            build_freebuf_campaign,
            build_usa138_campaign,
        )
        self.campaigns.append(build_freebuf_campaign(self))
        self.campaigns.append(build_usa138_campaign(self))

    # ------------------------------------------------------------------
    # known operations / OSINT
    # ------------------------------------------------------------------

    def _known_operation_pairs(self) -> List[tuple]:
        """(operation, campaign) pairs: the largest non-case-study XMR
        campaigns become the six publicly reported operations.

        Selection reads only campaign-level fields, so streaming mode
        can pick the pairs before any sample exists; the hash-IoC slice
        is published separately once a campaign's samples are known.
        """
        candidates = sorted(
            (c for c in self.campaigns
             if c.coin == "XMR" and c.known_operation is None
             and c.label is None  # Freebuf/USA-138 are *unknown* (§V)
             and c.band is not None and c.band >= 1),
            key=lambda c: c.target_xmr, reverse=True,
        )
        return list(zip(self.osint.operations(), candidates))

    @staticmethod
    def _publish_operation_hashes(operation, campaign) -> None:
        """Publish a third of the campaign's samples as hash IoCs."""
        operation.sample_hashes.update(
            campaign.sample_hashes[: max(1, len(campaign.sample_hashes) // 3)]
        )

    def _assign_known_operations(self) -> None:
        """Tag the operation campaigns and publish their IoCs."""
        for operation, campaign in self._known_operation_pairs():
            campaign.known_operation = operation.name
            operation.wallets.update(campaign.identifiers[:2])
            self._publish_operation_hashes(operation, campaign)
            operation.domains.update(campaign.cname_domains[:1])

    # ------------------------------------------------------------------
    # sample emission
    # ------------------------------------------------------------------

    def _emit_campaign_samples(self, campaign: GroundTruthCampaign) -> None:
        rng = self.rng.substream(f"samples:{campaign.campaign_id}")
        if campaign.fixed_sample_count is not None:
            n_samples = campaign.fixed_sample_count
        else:
            n_samples = min(
                self.config.samples_cap,
                max(dist.SAMPLES_MIN,
                    int(rng.pareto(dist.SAMPLES_PARETO_ALPHA))),
            )
        if campaign.hosting_urls:
            hosting = campaign.hosting_urls
        else:
            hosting = self._campaign_hosting(rng, campaign)
        # dropper/ancillary budget for this campaign
        n_droppers = rng.poisson(n_samples * dist.ANCILLARY_RATIO)
        dropper_hashes: List[str] = []
        for _ in range(n_droppers):
            dropper_hashes.append(
                self._emit_dropper(rng, campaign, hosting))
        for i in range(n_samples):
            parent = (rng.choice(dropper_hashes)
                      if dropper_hashes and rng.bernoulli(0.5) else None)
            self._emit_miner_sample(rng, campaign, hosting, parent,
                                    sample_index=i)

    def _campaign_hosting(self, rng: DeterministicRNG,
                          campaign: GroundTruthCampaign) -> List[str]:
        """Pick hosting URLs for the campaign's binaries (Table VI).

        Public repos/CDNs are shared by many campaigns (unique paths per
        campaign); actor-owned domains belong to exactly one campaign —
        when a draw collides with a domain already owned by another
        campaign, the actor registers a fresh one.
        """
        names = _HOSTING_NAMES
        public = _HOSTING_PUBLIC
        urls = []
        for _ in range(rng.randint(1, 3)):
            domain = rng.choices(names, cum_weights=_HOSTING_CUM)[0]
            if public[domain]:
                path = f"/dl/{rng.hexbytes(5)}/miner{rng.randint(1,9)}.exe"
            else:
                owner = self._hosting_owner.setdefault(
                    domain, campaign.campaign_id)
                if owner != campaign.campaign_id:
                    domain = f"ld{campaign.campaign_id}-{rng.hexbytes(2)}.ru"
                    self._hosting_owner[domain] = campaign.campaign_id
                # actor-owned host: stable URL reused by the campaign
                path = f"/load/{campaign.campaign_id}.exe"
            urls.append(f"http://{domain}{path}")
        campaign.hosting_urls = urls
        return urls

    def _mk_hashes(self, raw: bytes) -> Tuple[str, str]:
        return (hashlib.sha256(raw).hexdigest(),
                hashlib.md5(raw).hexdigest())

    def _first_seen_in(self, rng: DeterministicRNG,
                       campaign: GroundTruthCampaign) -> Date:
        start = campaign.start or SIM_END
        end = campaign.end or SIM_END
        span = max(1, (end - start).days)
        return add_days(start, rng.randint(0, span - 1))

    def _mining_target(self, campaign: GroundTruthCampaign,
                       rng: DeterministicRNG,
                       sample_index: int = 0) -> Tuple[str, str, int]:
        """(host, wallet, port) a sample of this campaign mines against.

        The first len(identifiers) samples cycle through every wallet so
        each identifier is embedded in at least one binary (otherwise a
        wallet with pool payments could be invisible to extraction).
        """
        if sample_index < len(campaign.identifiers):
            wallet = campaign.identifiers[sample_index]
        else:
            wallet = rng.choice(campaign.identifiers)
        port = rng.choice(_MINER_PORTS)
        if campaign.uses_proxy and campaign.proxy_host:
            return campaign.proxy_host, wallet, port
        if campaign.uses_cname and campaign.cname_domains:
            return rng.choice(campaign.cname_domains), wallet, port
        if campaign.pools:
            pool = self.pools.get(rng.choice(campaign.pools))
            return pool.config.domains[0], wallet, port
        if campaign.cname_domains:  # unknown/private pool campaigns
            return campaign.cname_domains[0], wallet, port
        return "pool.unknown.example", wallet, port

    def _miner_cmdline(self, campaign: GroundTruthCampaign, host: str,
                       wallet: str, port: int) -> str:
        tool = campaign.stock_framework or "miner"
        return (f"{tool}.exe -o stratum+tcp://{host}:{port} "
                f"-u {wallet} -p x --donate-level 1")

    def _emit_miner_sample(self, rng: DeterministicRNG,
                           campaign: GroundTruthCampaign,
                           hosting: List[str],
                           parent: Optional[str],
                           sample_index: int = 0) -> str:
        host, wallet, port = self._mining_target(campaign, rng,
                                                 sample_index)
        cmdline = self._miner_cmdline(campaign, host, wallet, port)
        first_seen = self._first_seen_in(rng, campaign)
        behavior = BehaviorScript()
        if rng.bernoulli(0.08):
            behavior.append(CheckSandbox(detectability=rng.uniform(0.2, 0.7)))
        dropped_tool: Optional[str] = None
        if campaign.uses_stock_tool and campaign.stock_framework:
            dropped_tool = self._emit_tool_drop(rng, campaign, first_seen)
            behavior.append(HttpGet(rng.choice(hosting)))
            if dropped_tool:
                behavior.append(DropFile("miner64.exe", dropped_tool))
        behavior.append(DnsQuery(host) if any(c.isalpha() for c in host)
                        else DnsQuery(host))
        behavior.append(SpawnProcess(
            image=f"{campaign.stock_framework or 'svchost'}.exe",
            cmdline=cmdline))
        algo_era = pow_era(first_seen)
        behavior.append(StratumSession(
            host=host, port=port, login=wallet,
            agent=f"xmrig/{2 + algo_era}.{rng.randint(0,9)}.{rng.randint(0,9)}",
            algo=f"cn/{algo_era}" if algo_era < 3 else "cn/r",
        ))
        if rng.bernoulli(dist.DONATION_SLICE_PROB):
            donation = rng.choice(sorted(self.stock.donation_wallets()))
            behavior.append(StratumSession(
                host=host, port=port, login=donation, algo="cn/0"))
        # binary body: embed config only when not wrapped by a crypter
        config = {"url": f"stratum+tcp://{host}:{port}",
                  "user": wallet, "pass": "x"}
        code_rng = rng.substream(f"code:{self._sample_counter}")
        raw = build_binary(
            ExecutableKind.PE if rng.bernoulli(0.9) else ExecutableKind.ELF,
            code=pseudo_code(code_rng, rng.randint(1200, 4000)),
            strings=[cmdline, f"stratum+tcp://{host}:{port}"],
            config=config,
        )
        raw = self._maybe_pack(rng, campaign, raw)
        sha, md5 = self._mk_hashes(raw)
        itw = [rng.choice(hosting)] if hosting and rng.bernoulli(0.6) else []
        record = SampleRecord(
            sha256=sha, md5=md5, raw=raw, behavior=behavior,
            first_seen=first_seen,
            source=(chosen_sources := self._pick_sources(rng))[0],
            sources=chosen_sources,
            kind="miner",
            itw_urls=itw,
            true_campaign_id=campaign.campaign_id,
            true_wallets=[wallet],
        )
        if parent:
            record.itw_urls = record.itw_urls or []
        self._register_sample(record, campaign)
        if parent:
            self._parent_links.setdefault(sha, []).append(parent)
        return sha

    def _emit_dropper(self, rng: DeterministicRNG,
                      campaign: GroundTruthCampaign,
                      hosting: List[str]) -> str:
        """Ancillary dropper binary: downloads and runs miners."""
        url = rng.choice(hosting) if hosting else "http://example.com/x.exe"
        behavior = BehaviorScript()
        behavior.append(HttpGet(url))
        code_rng = rng.substream(f"dropcode:{self._sample_counter}")
        raw = build_binary(
            ExecutableKind.PE,
            code=pseudo_code(code_rng, rng.randint(800, 2000)),
            strings=[url, "cmd /c start miner64.exe"],
        )
        raw = self._maybe_pack(rng, campaign, raw)
        sha, md5 = self._mk_hashes(raw)
        record = SampleRecord(
            sha256=sha, md5=md5, raw=raw, behavior=behavior,
            first_seen=self._first_seen_in(rng, campaign),
            source=(chosen_sources := self._pick_sources(rng))[0],
            sources=chosen_sources,
            kind="ancillary",
            itw_urls=[url],
            true_campaign_id=campaign.campaign_id,
        )
        self._register_sample(record, campaign)
        return sha

    def _emit_tool_drop(self, rng: DeterministicRNG,
                        campaign: GroundTruthCampaign,
                        as_of: Date) -> Optional[str]:
        """The stock-tool binary a campaign drops (exact or forked)."""
        tool = self.stock.latest_version(campaign.stock_framework or "",
                                         as_of=as_of)
        if tool is None:
            return None
        key = f"{campaign.campaign_id}:{tool.sha256}"
        if key in self._tool_drop_hashes:
            return self._tool_drop_hashes[key]
        if rng.bernoulli(0.25):
            raw = self.stock.fork_tool(tool, rng.substream("fork"))
        else:
            raw = tool.raw
        sha, md5 = self._mk_hashes(raw)
        if self.vt is not None and sha not in self._seen_hashes:
            record = SampleRecord(
                sha256=sha, md5=md5, raw=raw,
                behavior=BehaviorScript(),
                first_seen=as_of,
                source=(chosen_sources := self._pick_sources(rng))[0],
            sources=chosen_sources,
                kind="tool",
                true_campaign_id=campaign.campaign_id,
            )
            self._register_sample(record, campaign)
        self._tool_drop_hashes[key] = sha
        return sha

    def _maybe_pack(self, rng: DeterministicRNG,
                    campaign: GroundTruthCampaign, raw: bytes) -> bytes:
        if campaign.packer is None:
            return raw
        # Campaign-level obfuscation means >=80% of samples are packed;
        # other packer-using campaigns pack about half their builds,
        # landing the corpus-wide packed share near the paper's ~30%.
        prob = 0.9 if campaign.uses_obfuscation else 0.48
        if not rng.bernoulli(prob):
            return raw
        packer = (CUSTOM_CRYPTER if campaign.packer == "custom"
                  else PACKERS[campaign.packer])
        return pack(raw, packer)

    def _pick_source(self, rng: DeterministicRNG) -> str:
        return rng.choices(_SOURCES, cum_weights=_SOURCE_CUM)[0]

    #: P(sample ALSO appears in feed), per feed: VT carries nearly
    #: everything, Palo Alto about half — which is why Table III's
    #: per-source counts (956K + 629K + ...) exceed the 1.23M total.
    _SOURCE_OVERLAP = {
        # calibrated so the marginal feed coverage matches Table III:
        # P(VT) ~ 956K/1.23M = 0.78, P(PaloAlto) ~ 629K/1.23M = 0.51.
        "Virus Total": 0.436,
        "Palo Alto Networks": 0.203,
        "Hybrid Analysis": 0.0007,
        "Virus Share": 0.0004,
    }

    def _pick_sources(self, rng: DeterministicRNG) -> List[str]:
        """Primary feed plus every other feed that also carries it."""
        primary = self._pick_source(rng)
        sources = [primary]
        for feed, probability in self._SOURCE_OVERLAP.items():
            if feed != primary and rng.bernoulli(probability):
                sources.append(feed)
        return sources

    def _register_sample(self, record: SampleRecord,
                         campaign: Optional[GroundTruthCampaign]) -> None:
        self._sample_counter += 1
        self.samples.append(record)
        self._seen_hashes.add(record.sha256)
        if campaign is not None:
            campaign.sample_hashes.append(record.sha256)

    # ------------------------------------------------------------------
    # fixtures
    # ------------------------------------------------------------------

    def _add_pre2014_reuse_fixture(self) -> List[SampleRecord]:
        """Table V: droppers seen in 2012/2013 later updated to mine XMR."""
        miner_hashes = {s.sha256 for s in self.samples if s.kind == "miner"}
        xmr_campaigns = [
            c for c in self.campaigns if c.coin == "XMR"
            and any(sha in miner_hashes for sha in c.sample_hashes)
        ]
        miners_by_campaign = {
            c.campaign_id: [sha for sha in c.sample_hashes
                            if sha in miner_hashes]
            for c in xmr_campaigns
        }
        return self._emit_pre2014_fixture(xmr_campaigns, miners_by_campaign)

    def _emit_pre2014_fixture(
            self, xmr_campaigns: List[GroundTruthCampaign],
            miners_by_campaign: Dict[int, List[str]]) -> List[SampleRecord]:
        """Emit the reuse fixture given XMR-with-miner campaigns in
        campaign order and their miner hashes (streaming mode passes
        only the first three such campaigns — the only ones targeted)."""
        rng = self.rng.substream("pre2014")
        if len(xmr_campaigns) < 2:
            return []
        targets = [xmr_campaigns[0], xmr_campaigns[0], xmr_campaigns[1],
                   xmr_campaigns[min(2, len(xmr_campaigns) - 1)]]
        years = [2012, 2013, 2013, 2013]
        emitted: List[SampleRecord] = []
        for index, (year, campaign) in enumerate(zip(years, targets)):
            behavior = BehaviorScript()
            behavior.append(HttpGet("http://updates.old-botnet.ru/stage2"))
            miners = miners_by_campaign[campaign.campaign_id]
            # drop up to two children so the dropper stays recoverable
            # even when one child fails the sanity checks
            children = (miners if len(miners) <= 2
                        else rng.sample(miners, 2))
            child = children[0]
            for dropped in children:
                behavior.append(DropFile("stage2.exe", dropped))
            raw = build_binary(
                ExecutableKind.PE,
                code=pseudo_code(rng.substream(f"pre2014code:{index}"),
                                 1500),
                strings=["http://updates.old-botnet.ru/stage2",
                         f"build-{year}-{index}"],
            )
            sha, md5 = self._mk_hashes(raw)
            record = SampleRecord(
                sha256=sha, md5=md5, raw=raw, behavior=behavior,
                first_seen=datetime.date(year, rng.randint(1, 12),
                                         rng.randint(1, 28)),
                source="Virus Total",
                kind="ancillary",
                true_campaign_id=campaign.campaign_id,
            )
            self._register_sample(record, campaign)
            emitted.append(record)
            for dropped in children:
                self._parent_links.setdefault(dropped, []).append(sha)
        return emitted

    def _emit_junk(self) -> None:
        """Non-mining feed noise the sanity checks must drop (§III-B)."""
        for _ in self._iter_junk():
            pass

    def _iter_junk(self):
        """Generate junk samples one at a time (streaming-friendly).

        ``_sample_counter`` equals ``len(self.samples)`` on the batch
        path, so sizing the junk share off the counter keeps the draw
        sequence identical while letting streaming mode drain
        ``self.samples`` between chunks.
        """
        rng = self.rng.substream("junk")
        mining_count = self._sample_counter
        count = int(mining_count * self.config.junk_ratio)
        for i in range(count):
            roll = rng.random()
            if roll < 0.55:
                # generic malware, no mining IoCs
                raw = build_binary(
                    ExecutableKind.PE, code=pseudo_code(rng.substream(f"junk{i}"), 900),
                    strings=["C:\\Windows\\System32\\cmd.exe",
                             "SOFTWARE\\Microsoft\\Windows\\CurrentVersion\\Run"],
                )
                kind = "junk"
            elif roll < 0.80:
                # web cryptojacker: script, not an executable
                raw = (b"<script src='https://coinhive.com/lib/"
                       + rng.randbytes(8).hex().encode() + b".js'></script>")
                kind = "junk"
            else:
                # corrupt / data blob
                raw = rng.randbytes(rng.randint(100, 600))
                kind = "junk"
            sha, md5 = self._mk_hashes(raw)
            record = SampleRecord(
                sha256=sha, md5=md5, raw=raw, behavior=BehaviorScript(),
                first_seen=datetime.date(rng.randint(2010, 2018),
                                         rng.randint(1, 12),
                                         rng.randint(1, 28)),
                source=(chosen_sources := self._pick_sources(rng))[0],
            sources=chosen_sources,
                kind=kind,
            )
            self._register_sample(record, None)
            yield record

    # ------------------------------------------------------------------
    # intel publication
    # ------------------------------------------------------------------

    def _publish_intel(self) -> None:
        """Emit the VT reports (detection model) and a slice of HA runs."""
        whitelist = self.stock.whitelist_hashes()
        sandbox = Sandbox(self.resolver, SandboxEnvironment(
            analysis_date=datetime.date(2018, 9, 1)))
        for sample in self.samples:
            rng = self.rng.substream(f"intel:{sample.sha256}")
            report = self._make_vt_report(rng, sample, whitelist)
            self.vt.add_report(report)
            if sample.kind == "miner" and rng.bernoulli(0.03):
                self.ha.publish(sandbox.run(sample.sha256, sample.behavior))

    def _make_vt_report(self, rng: DeterministicRNG, sample: SampleRecord,
                        whitelist: set) -> AvReport:
        campaign = None
        if sample.true_campaign_id is not None:
            campaign = self._campaign_by_id(sample.true_campaign_id)
        # detection count model
        if sample.kind == "tool" and sample.sha256 in whitelist:
            positives = rng.randint(12, 22)   # AVs flag tools as riskware
            label_base = "PUA.CoinMiner"
        elif sample.kind == "tool":
            positives = rng.randint(10, 20)
            label_base = "PUA.CoinMiner"
        elif sample.kind == "junk":
            if len(sample.raw) and sample.raw[:1] == b"<":
                positives = rng.randint(5, 18)
                label_base = "JS.CoinHive"
            elif sample.raw[:2] == b"MZ":
                positives = rng.randint(10, 30)
                label_base = "Trojan.Generic"
            else:
                positives = rng.randint(0, 3)
                label_base = "Heur.Suspicious"
        else:
            packer = identify_packer(sample.raw)
            if packer is None and looks_obfuscated(sample.raw):
                positives = rng.randint(4, 12)    # crypters evade many AVs
            elif packer is not None:
                # known packers are trivially unpacked by AV engines
                positives = rng.randint(10, 26)
            else:
                positives = rng.randint(12, 32)
            label_base = ("Trojan.CoinMiner" if sample.kind == "miner"
                          else "Trojan.Dropper")
        positives = min(positives, len(AV_VENDORS))
        vendors = rng.sample(_AV_VENDOR_LIST, positives)
        # One iteration per detection, about 18 per sample, so the
        # draws are inlined: bernoulli(0.35) is random() < 0.35,
        # randint(0, 120) is getrandbits(7) drawn until it is at most 120,
        # the loop random.Random.randint runs, and hexbytes(2) is one
        # getrandbits(64) whose two 32-bit words give their top bytes
        # (_hex2).  Same calls, same order.
        _random = rng._random.random
        _bits = rng._random.getrandbits
        ppi_botnet = (campaign.ppi_botnet
                      if campaign is not None and campaign.uses_ppi else None)
        seen = sample.first_seen or datetime.date(2019, 2, 1)
        detections = {}
        for vendor in vendors:
            label = f"{label_base}.{_hex2(_bits(64))}"
            if ppi_botnet and _random() < 0.35:
                label = f"Win32.{ppi_botnet}.{_hex2(_bits(64))}"
            lag = _bits(7)
            while lag > 120:
                lag = _bits(7)
            detections[vendor] = (label, seen + _LAG_DAYS[lag])
        # first_seen can be missing for recent samples (VT rate limits)
        first_seen = sample.first_seen
        if (first_seen is not None and first_seen.year >= 2019
                and rng.bernoulli(dist.MISSING_FIRST_SEEN_FRACTION * 3)):
            first_seen = None
        contacted = [a.domain for a in sample.behavior
                     if isinstance(a, DnsQuery)]
        contacted += [a.host for a in sample.behavior
                      if isinstance(a, StratumSession)
                      and any(ch.isalpha() for ch in a.host)]
        return AvReport(
            sha256=sample.sha256,
            md5=sample.md5,
            first_seen=first_seen,
            detections=detections,
            itw_urls=list(sample.itw_urls),
            parents=list(self._parent_links.get(sample.sha256, [])),
            contacted_domains=sorted(set(contacted)),
            file_type=("PE" if sample.raw[:2] == b"MZ" else
                       "ELF" if sample.raw[:4] == b"\x7fELF" else "DATA"),
        )

    def _campaign_by_id(self, campaign_id: int) -> Optional[GroundTruthCampaign]:
        if not hasattr(self, "_campaign_index"):
            self._campaign_index: Dict[int, GroundTruthCampaign] = {}
        idx = self._campaign_index
        if len(idx) != len(self.campaigns):
            idx.clear()
            idx.update({c.campaign_id: c for c in self.campaigns})
        return idx.get(campaign_id)


def generate_world(config: Optional[ScenarioConfig] = None) -> SyntheticWorld:
    """Convenience wrapper: build a world with the given config."""
    return EcosystemGenerator(config).generate()
