"""End-to-end measurement pipeline (Figure 3 of the paper).

Orchestrates: sanity checks -> static/dynamic extraction -> the
illicit-wallet exception sweep -> ancillary recovery -> profit analysis
-> proxy identification -> campaign aggregation -> enrichment.

Each step up to proxy identification has one implementation here, a
plain function that all four drivers call directly: this batch pipeline,
the out-of-core :class:`~repro.scale.pipeline.ScalePipeline`, the
checkpointed :class:`~repro.ingest.service.IngestionService` and the
record-set derivations of :mod:`repro.serve.snapshot`.  Besides the
per-sample stages (:func:`stage1_analyze`, :func:`stage2_sweep`) these
are the recovery fixpoint :func:`recover_linked`, the proxy rule
:func:`find_proxies` over :func:`proxy_candidates`, the funnel tail
:meth:`PipelineStats.count_kept` + :func:`below_threshold_verdict`, and
:func:`derive_from_records`; profit polling is
:meth:`~repro.core.profit.ProfitAnalyzer.profile_many` everywhere.  Each
driver owns only where its samples come from and where its state lives:
this one reads an in-memory world and keeps dicts.  A
:class:`~repro.perf.profiler.PipelineProfiler` times every stage.
"""

import datetime
from dataclasses import dataclass, field
from functools import partial
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.common.net import is_ipv4_literal
from repro.core.aggregation import (
    Campaign,
    CampaignAggregator,
    GroupingPolicy,
)
from repro.core.dynamic_analysis import DynamicAnalyzer
from repro.core.enrichment import CampaignEnricher
from repro.core.extraction import DEFAULT_ANALYSIS_DATE, ExtractionEngine
from repro.core.profit import ProfitAnalyzer, WalletProfile
from repro.core.records import MinerRecord
from repro.core.sanity import SanityChecker, SanityVerdict
from repro.core.static_analysis import StaticAnalyzer
from repro.corpus.model import SampleRecord, SyntheticWorld
from repro.perf.cache import CachingResolver
from repro.perf.profiler import PipelineProfiler
from repro.perf.scan import profiled_scan
from repro.sandbox.emulator import Sandbox, SandboxEnvironment


@dataclass
class SampleOutcome:
    """Result of one sample's stage-1 or stage-2 analysis.

    ``kind`` is one of ``nonexec`` / ``deferred`` / ``rejected`` /
    ``miner`` (stage 1), ``clean`` / ``exception`` (stage 2) or
    ``recovered`` (ingestion's dropper-chain recovery).  Ingestion
    journals these, so they carry only what the merge step needs.
    """

    index: int
    sha256: str
    kind: str
    verdict: Optional[SanityVerdict] = None
    record: Optional[MinerRecord] = None
    has_network: bool = False
    used_static: bool = False


def build_analysis_components(
        world: SyntheticWorld, positives_threshold: int,
        analysis_date: datetime.date, use_ha_reports: bool
) -> Tuple[SanityChecker, ExtractionEngine]:
    """The sanity checker + extraction engine pair every driver uses.

    DNS resolution goes through a shared LRU memo.
    """
    resolver = CachingResolver(world.resolver)
    sandbox = Sandbox(resolver, SandboxEnvironment(
        analysis_date=analysis_date))
    checker = SanityChecker(
        world.vt, world.osint, world.pool_directory,
        tool_whitelist=world.stock_catalog.whitelist_hashes(),
        positives_threshold=positives_threshold,
    )
    engine = ExtractionEngine(
        StaticAnalyzer(),
        DynamicAnalyzer(sandbox, world.ha if use_ha_reports else None),
        world.vt, world.pool_directory,
        resolver, world.passive_dns,
        analysis_date=analysis_date,
    )
    return checker, engine


def stage1_analyze(sample: SampleRecord, index: int, checker,
                   engine) -> SampleOutcome:
    """Sanity checks + extraction for one sample (pipeline stage 1)."""
    if not checker.is_executable(sample.raw):
        return SampleOutcome(index, sample.sha256, "nonexec",
                             verdict=SanityVerdict(
                                 sample.sha256, is_executable=False,
                                 reasons="not an executable"))
    if not checker.is_malware(sample.sha256):
        return SampleOutcome(index, sample.sha256, "deferred")
    record, report = engine.extract_with_report(sample)
    has_network = report is not None and len(report.flows) > 0
    is_miner = (bool(record.identifiers)
                or checker.is_miner(sample, report))
    verdict = SanityVerdict(
        sample.sha256, is_executable=True, is_malware=True,
        is_miner=is_miner, whitelisted_tool=False)
    return SampleOutcome(
        index, sample.sha256, "miner" if is_miner else "rejected",
        verdict=verdict, record=record if is_miner else None,
        has_network=has_network, used_static=record.used_static)


def below_threshold_verdict(sha256: str) -> SanityVerdict:
    """Verdict of a deferred sample no confirmed wallet vouched for."""
    return SanityVerdict(sha256, is_executable=True, is_malware=False,
                         reasons="below AV threshold")


def stage2_sweep(sample: SampleRecord, index: int,
                 confirmed: FrozenSet[str], engine) -> SampleOutcome:
    """Illicit-wallet exception sweep for one deferred sample."""
    quick = engine.extract_static_only(sample)
    if not set(quick.identifiers) & confirmed:
        return SampleOutcome(index, sample.sha256, "clean",
                             verdict=below_threshold_verdict(sample.sha256))
    record, _report = engine.extract_with_report(sample)
    verdict = SanityVerdict(
        sample.sha256, is_executable=True, is_malware=True,
        is_miner=True, used_wallet_exception=True)
    return SampleOutcome(index, sample.sha256, "exception",
                         verdict=verdict, record=record)


def linked_hashes(record: MinerRecord, vt) -> Set[str]:
    """Dropper-chain neighbours of one record (§III-E ancestry links):
    its parents, the binaries it dropped, and VT parent-metadata
    children of the sample itself."""
    linked: Set[str] = set(record.parents)
    linked.update(record.dropped)
    linked.update(vt.children_of(record.sha256))
    return linked


def analyze_linked_sample(
        sample: SampleRecord,
        engine: ExtractionEngine) -> Tuple[MinerRecord, SanityVerdict]:
    """Admit one dropper-linked executable into the dataset (§III-E).

    The caller has already established executability, malware status and
    the link to an accepted record; this runs the extraction and types
    the record Miner/Ancillary.
    """
    record, _report = engine.extract_with_report(sample)
    record.type = "Miner" if record.identifiers else "Ancillary"
    verdict = SanityVerdict(
        sample.sha256, is_executable=True, is_malware=True,
        is_miner=bool(record.identifiers),
        reasons=None if record.identifiers else "ancillary")
    return record, verdict


def recover_linked(linked: Set[str],
                   links_of: Callable[[MinerRecord], Iterable[str]],
                   admit: Callable[[str], Optional[MinerRecord]]) -> int:
    """Pull in droppers/loaders linked to accepted records (§III-E).

    A malware executable that failed the is-miner check still enters
    the dataset as an *ancillary* when it is a parent of an accepted
    sample, or an accepted sample dropped it.  Dropper chains can be
    several hops long (dropper -> loader -> miner), so this iterates to
    a fixpoint in frontier waves: ``linked`` is the first wave, and each
    later wave is only ``links_of`` the records the previous one
    admitted.  ``admit(sha)`` returns the record it admitted, or None;
    the count of admissions is returned.
    """
    admitted = 0
    while linked:
        wave: List[MinerRecord] = []
        for sha in sorted(linked):
            record = admit(sha)
            if record is not None:
                wave.append(record)
        admitted += len(wave)
        linked = set()
        for record in wave:
            linked.update(links_of(record))
    return admitted


def proxy_candidates(records: Iterable[MinerRecord]
                     ) -> Iterator[Tuple[str, List[str]]]:
    """``(ip, identifiers)`` of each record with identifiers that mined
    against a non-pool IPv4 endpoint: the proxy rule's first half."""
    for record in records:
        ip = record.dst_ip
        if ip is None or record.pool is not None or not record.identifiers:
            continue
        if ip in ("0.0.0.0", "127.0.0.1"):
            continue  # unresolved-host sentinel, not a real endpoint
        if is_ipv4_literal(ip):
            yield ip, record.identifiers


def find_proxies(candidates: Iterable[Tuple[str, Iterable[str]]],
                 profiles: Dict[str, WalletProfile]) -> Set[str]:
    """Proxy rule (§III-C): a sample mines against a non-pool IP but
    its wallet shows activity at a known (transparent) pool."""
    proxies: Set[str] = set()
    for ip, identifiers in candidates:
        for identifier in identifiers:
            profile = profiles.get(identifier)
            if profile is not None and profile.records:
                proxies.add(ip)
                break
    return proxies


def derive_from_records(records: List[MinerRecord],
                        profit: ProfitAnalyzer, aggregator
                        ) -> Tuple[Dict[str, WalletProfile], Set[str]]:
    """``(profiles, proxies)`` of a record set, fed into ``aggregator``.

    Pure functions of the records (wallets polled in first-seen order),
    so a restore lands on the state an uninterrupted run holds without
    persisting pool responses.  ``aggregator`` is incremental
    (``add_record`` / ``add_proxy_ips``).
    """
    profiles = profit.profile_many(dict.fromkeys(
        identifier for record in records
        for identifier in record.identifiers))
    proxies = find_proxies(proxy_candidates(records), profiles)
    for record in records:
        aggregator.add_record(record)
    aggregator.add_proxy_ips(proxies)
    return profiles, proxies


@dataclass
class PipelineStats:
    """Bookkeeping for Table III."""

    collected: int = 0
    executables: int = 0
    malware: int = 0
    miners: int = 0
    ancillaries: int = 0
    wallet_exception_hits: int = 0
    by_source: Dict[str, int] = field(default_factory=dict)
    sandbox_analyses: int = 0
    network_analyses: int = 0
    binary_analyses: int = 0

    @property
    def all_executables_kept(self) -> int:
        return self.miners + self.ancillaries

    def tally(self, outcome: SampleOutcome) -> None:
        """Count one stage-1 or stage-2 outcome into the funnel.

        Miner/ancillary and per-feed totals are not counted here: they
        depend on the kept record set, which only recovery completes.
        """
        kind = outcome.kind
        if kind in ("deferred", "rejected", "miner"):
            self.executables += 1
        if kind in ("rejected", "miner"):
            self.malware += 1
            self.sandbox_analyses += 1
            if outcome.has_network:
                self.network_analyses += 1
            if outcome.used_static:
                self.binary_analyses += 1
        elif kind == "exception":
            self.sandbox_analyses += 1
            self.binary_analyses += 1
            self.wallet_exception_hits += 1

    def count_kept(self, record: MinerRecord,
                   sample: Optional[SampleRecord] = None) -> None:
        """Count one kept record; ``sample`` (if known) adds its feeds.

        Feeds overlap (Appendix C): a sample counts toward every feed
        that carries it, so per-source totals can exceed the dataset
        size, exactly like Table III.
        """
        if record.is_miner:
            self.miners += 1
        else:
            self.ancillaries += 1
        if sample is not None:
            for feed in sample.sources:
                self.by_source[feed] = self.by_source.get(feed, 0) + 1


@dataclass
class MeasurementResult:
    """Everything the pipeline produced."""

    records: List[MinerRecord]
    campaigns: List[Campaign]
    profiles: Dict[str, WalletProfile]
    verdicts: Dict[str, SanityVerdict]
    stats: PipelineStats
    proxy_ips: Set[str]

    def miner_records(self) -> List[MinerRecord]:
        """Records classified as miners (TYPE == Miner)."""
        return [r for r in self.records if r.is_miner]

    def campaign_for_wallet(self, identifier: str) -> Optional[Campaign]:
        """The campaign holding ``identifier``, or None.

        Backed by a lazily built identifier index; reporting layers
        call this per wallet, which made the old linear scan O(wallets
        x campaigns) on large worlds.
        """
        if not hasattr(self, "_campaign_by_identifier"):
            index: Dict[str, Campaign] = {}
            for campaign in self.campaigns:
                for held in campaign.identifiers:
                    index.setdefault(held, campaign)
            self._campaign_by_identifier = index
        return self._campaign_by_identifier.get(identifier)

    def xmr_campaigns(self) -> List[Campaign]:
        """Campaigns holding at least one Monero identifier."""
        return [c for c in self.campaigns if "XMR" in c.coins]

    def campaigns_with_payments(self) -> List[Campaign]:
        """Campaigns with observed pool payments (total XMR > 0)."""
        return [c for c in self.campaigns if c.total_xmr > 0]


def iter_result_records(result) -> Iterator[MinerRecord]:
    """Stream a result's records without materialising a list.

    Works across both result flavours: a store-backed result
    (:class:`repro.scale.pipeline.ScaleResult`, whose ``records`` is a
    materialising *method*) streams straight from its columnar
    segments; a batch :class:`MeasurementResult` iterates its in-memory
    list.  Exhibit, export and serving layers use this so they never
    force a million-record world into memory just to fold over it.
    """
    store = getattr(result, "store", None)
    if store is not None:
        return store.iter_records()
    return iter(result.records)


class MeasurementPipeline:
    """The full measurement methodology against a (synthetic) world.

    ``profiler`` may be supplied to share one across runs; otherwise
    each pipeline owns one, exposed as :attr:`profiler`.
    """

    def __init__(self, world: SyntheticWorld,
                 policy: Optional[GroupingPolicy] = None,
                 positives_threshold: int = 10,
                 analysis_date: datetime.date = DEFAULT_ANALYSIS_DATE,
                 use_ha_reports: bool = True,
                 profiler: Optional[PipelineProfiler] = None,
                 record_store=None) -> None:
        self.world = world
        #: optional repro.scale.columnar.RecordStore (duck-typed to
        #: avoid a core -> scale import cycle); every run appends the
        #: kept record set as one columnar segment.
        self.record_store = record_store
        self.profiler = profiler or PipelineProfiler()
        self._policy = policy or GroupingPolicy.full()
        self._checker, self._engine = build_analysis_components(
            world, positives_threshold, analysis_date, use_ha_reports)
        self._profit = ProfitAnalyzer(world.pool_directory)

    # ------------------------------------------------------------------

    def run(self) -> MeasurementResult:
        """Execute all pipeline stages; returns the measurement result."""
        with profiled_scan(self.profiler):
            return self._run_stages()

    def _run_stages(self) -> MeasurementResult:
        prof = self.profiler
        samples = self.world.samples
        stats = PipelineStats(collected=len(samples))
        verdicts: Dict[str, SanityVerdict] = {}
        records: Dict[str, MinerRecord] = {}
        deferred: List[int] = []
        confirmed: Set[str] = set()

        # -- stage 1: sanity + extraction for confirmed malware ---------
        with prof.stage("sanity + extraction", items=len(samples)):
            for index, sample in enumerate(samples):
                outcome = stage1_analyze(sample, index, self._checker,
                                         self._engine)
                stats.tally(outcome)
                if outcome.kind == "deferred":
                    deferred.append(index)
                    continue
                verdicts[outcome.sha256] = outcome.verdict
                if outcome.kind == "miner":
                    records[outcome.sha256] = outcome.record
                    confirmed.update(outcome.record.identifiers)

        # -- stage 2: illicit-wallet exception sweep ---------------------
        swept = frozenset(confirmed)
        with prof.stage("wallet-exception sweep", items=len(deferred)):
            for index in deferred:
                outcome = stage2_sweep(samples[index], index, swept,
                                       self._engine)
                stats.tally(outcome)
                verdicts[outcome.sha256] = outcome.verdict
                if outcome.kind == "exception":
                    records[outcome.sha256] = outcome.record

        # -- stage 3: ancillary recovery ---------------------------------
        vt = self.world.vt
        with prof.stage("ancillary recovery"):
            linked: Set[str] = set()
            for record in records.values():
                linked.update(linked_hashes(record, vt))
            recover_linked(linked, partial(linked_hashes, vt=vt),
                           partial(self._admit_linked, records, verdicts,
                                   stats))

        kept = list(records.values())

        if self.record_store is not None:
            with prof.stage("record store flush", items=len(kept)):
                self.record_store.append_segment(kept)

        with prof.stage("funnel accounting", items=len(kept)):
            for record in kept:
                stats.count_kept(
                    record, self.world.sample_by_hash(record.sha256))

        # -- stage 4: profit analysis ------------------------------------
        identifiers = {
            identifier for record in kept
            for identifier in record.identifiers
        }
        with prof.stage("profit analysis", items=len(identifiers)):
            profiles = self._profit.profile_many(sorted(identifiers))

        # -- stage 5: proxy identification --------------------------------
        with prof.stage("proxy identification"):
            proxy_ips = find_proxies(proxy_candidates(kept), profiles)

        # -- stage 6: aggregation ------------------------------------------
        with prof.stage("aggregation", items=len(kept)):
            aggregator = CampaignAggregator(
                self.world.osint, self._policy, proxy_ips=proxy_ips)
            campaigns = aggregator.aggregate(kept)

        # -- stage 7: enrichment --------------------------------------------
        with prof.stage("enrichment", items=len(campaigns)):
            enricher = CampaignEnricher(
                self.world.vt, self.world.stock_catalog,
                self.world.sample_by_hash,
            )
            enricher.enrich_all(campaigns, profiles)

        return MeasurementResult(
            records=kept,
            campaigns=campaigns,
            profiles=profiles,
            verdicts=verdicts,
            stats=stats,
            proxy_ips=proxy_ips,
        )

    def _admit_linked(self, records: Dict[str, MinerRecord],
                      verdicts: Dict[str, SanityVerdict],
                      stats: PipelineStats,
                      sha: str) -> Optional[MinerRecord]:
        """Recovery's admission test: any executable malware sample of
        the world that is not kept yet."""
        if sha in records:
            return None
        sample = self.world.sample_by_hash(sha)
        if (sample is None or not self._checker.is_executable(sample.raw)
                or not self._checker.is_malware(sample.sha256)):
            return None
        record, verdict = analyze_linked_sample(sample, self._engine)
        stats.sandbox_analyses += 1
        records[sha] = record
        verdicts[sha] = verdict
        self.profiler.count("ancillaries_recovered")
        return record
