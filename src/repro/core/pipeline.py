"""End-to-end measurement pipeline (Figure 3 of the paper).

Sanity checks -> static/dynamic extraction -> the illicit-wallet
exception -> ancillary recovery -> profit analysis -> proxy
identification -> campaign aggregation -> enrichment, written once.
:class:`MeasurementFold` is the per-sample half, folding samples in
windows: :class:`MeasurementPipeline` takes one step over the whole
world, :class:`~repro.ingest.service.IngestionService` one per feed
batch.  :class:`MeasurementTail` is the per-record-set half every
driver ends in, each with its own campaign aggregator: one-shot
(batch), incremental (ingestion) or sharded (the out-of-core
:class:`~repro.scale.pipeline.ScalePipeline` and
:func:`repro.serve.snapshot.result_from_store`).  ``ScalePipeline``
keeps its own chunk-and-spill loops over the step functions here
(:func:`stage1_analyze`, :func:`stage2_sweep`, :func:`recover_linked`,
:func:`analyze_linked_sample`).  Each per-sample analysis (those step
functions and :meth:`MeasurementFold.defer`) builds one
:class:`~repro.perf.scan.ScanContext` and hands it to every consumer:
stage 1's static analysis and rule scan read one unpack and one
strings blob.  A :class:`~repro.perf.profiler.PipelineProfiler` times
every stage under one set of names.
"""

import dataclasses
from dataclasses import dataclass, field
from functools import partial
from typing import (
    Callable,
    Collection,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.common.net import is_ipv4_literal
from repro.core.aggregation import Campaign, CampaignAggregator, GroupingPolicy
from repro.core.dynamic_analysis import DynamicAnalyzer
from repro.core.enrichment import CampaignEnricher, add_stock_tool_facts
from repro.core.extraction import DEFAULT_ANALYSIS_DATE, ExtractionEngine
from repro.core.profit import ProfitAnalyzer, WalletProfile
from repro.core.records import MinerRecord
from repro.core.sanity import (
    MALWARE_POSITIVES_THRESHOLD,
    SanityChecker,
    SanityVerdict,
)
from repro.core.static_analysis import StaticAnalyzer
from repro.corpus.model import SampleRecord, SyntheticWorld
from repro.perf.cache import CachingResolver, release_caches
from repro.perf.profiler import PipelineProfiler
from repro.perf.scan import ScanContext, profiled_scan
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
        world: SyntheticWorld, positives_threshold: int
) -> Tuple[SanityChecker, ExtractionEngine]:
    """The sanity checker + extraction engine pair every driver uses.

    The method is the paper's: one analysis date, with HA reports
    reused where they exist.  DNS resolution goes through a shared LRU
    memo.
    """
    resolver = CachingResolver(world.resolver)
    sandbox = Sandbox(resolver, SandboxEnvironment(
        analysis_date=DEFAULT_ANALYSIS_DATE))
    checker = SanityChecker(
        world.vt, world.osint, world.pool_directory,
        tool_whitelist=world.stock_catalog.whitelist_hashes(),
        positives_threshold=positives_threshold,
    )
    engine = ExtractionEngine(
        StaticAnalyzer(),
        DynamicAnalyzer(sandbox, world.ha),
        world.vt, world.pool_directory,
        resolver, world.passive_dns,
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
    ctx = ScanContext.for_sample(sample.raw)
    record, report = engine.extract_with_report(sample, ctx)
    has_network = report is not None and len(report.flows) > 0
    is_miner = (bool(record.identifiers)
                or checker.is_miner(sample, ctx, report))
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
    ctx = ScanContext.for_sample(sample.raw)
    quick = engine.extract_static_only(sample, ctx)
    if not set(quick.identifiers) & confirmed:
        return SampleOutcome(index, sample.sha256, "clean",
                             verdict=below_threshold_verdict(sample.sha256))
    record, _report = engine.extract_with_report(sample, ctx)
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
    record, _report = engine.extract_with_report(
        sample, ScanContext.for_sample(sample.raw))
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


class FoldStep(NamedTuple):
    """What one :meth:`MeasurementFold.step` did."""

    analyzed: int              # samples run through stage 1
    records: List[str]         # hashes admitted, in admission order
    miners: int                # stage-1 miners among ``records``
    promotions: int            # wallet-exception promotions
    recovered: int             # dropper-chain recoveries


class MeasurementFold:
    """The per-sample fold: each sample to a verdict, each kept sample
    to a record.

    Each :meth:`step` takes a window of samples through stage 1, then
    promotes deferred samples whose wallets a stage-1 miner has
    confirmed (the illicit-wallet exception), then recovers dropper
    chains over the samples arrived so far; a link to a sample not yet
    arrived stays on the ``wanted`` list until it arrives.  Confirmed
    wallets and arrived samples only grow, so any windowing ends in the
    state of one window over all.
    :meth:`finish` gives still-pending samples their final verdict and
    counts the funnel.  A step's ``journal`` sees each outcome before
    :meth:`apply` folds it in, so replaying a journal through
    :meth:`apply` walks the same states.  The fold knows nothing of
    batches, commits or snapshots.
    """

    def __init__(self, world: SyntheticWorld, checker: SanityChecker,
                 engine: ExtractionEngine, profiler: PipelineProfiler
                 ) -> None:
        self.world = world
        self.profiler = profiler
        self._checker = checker
        self._engine = engine
        self.stats = PipelineStats()
        self.records: Dict[str, MinerRecord] = {}
        self.verdicts: Dict[str, SanityVerdict] = {}
        #: identifiers of stage-1 miners (the wallet exception's key)
        self.confirmed: Set[str] = set()
        #: deferred sha -> sample index
        self.pending: Dict[str, int] = {}
        self._pending_ids: Dict[str, FrozenSet[str]] = {}
        #: arrived sha -> sample index
        self.arrived: Dict[str, int] = {}
        #: linked hashes whose samples have not arrived yet
        self.wanted: Set[str] = set()

    def arrive(self, indices: Iterable[int]) -> List[str]:
        """Mark samples as arrived; returns the hashes new to the fold."""
        samples = self.world.samples
        fresh = []
        for index in indices:
            sha = samples[index].sha256
            if sha not in self.arrived:
                fresh.append(sha)
            self.arrived[sha] = index
        return fresh

    def step(self, indices: Sequence[int],
             journal: Optional[Callable[[SampleOutcome], None]] = None,
             replayed: Collection[str] = (),
             frontier: Sequence[str] = ()) -> FoldStep:
        """Fold one window in.  A resumed window names the samples whose
        stage-1 outcome :meth:`apply` already folded in (``replayed``)
        and the records admitted that way (``frontier``)."""
        samples = self.world.samples
        self.stats.collected += len(indices)
        arrived_now = self.arrive(indices)
        added: List[str] = []
        emit = partial(self._emit, journal, added)
        todo = [i for i in indices if samples[i].sha256 not in replayed]
        with self.profiler.stage("sanity + extraction", items=len(todo)):
            for index in todo:
                emit(stage1_analyze(samples[index], index, self._checker,
                                    self._engine))
        miners = sum(1 for sha in added if self.records[sha].is_miner)
        promotions = self._promote(emit)
        recovered = self._recover([*frontier, *added], arrived_now, emit)
        return FoldStep(len(todo), added, miners, promotions, recovered)

    def apply(self, outcome: SampleOutcome, added: List[str]) -> None:
        """Fold one outcome into the state; a new record's hash goes on
        ``added``."""
        sha = outcome.sha256
        self.stats.tally(outcome)
        if outcome.kind == "deferred":
            self.defer(sha, outcome.index)
            return
        self.verdicts[sha] = outcome.verdict
        if outcome.kind == "miner":
            self.confirmed.update(outcome.record.identifiers)
        elif outcome.kind == "exception":
            self.pending.pop(sha, None)
            self._pending_ids.pop(sha, None)
        elif outcome.kind == "recovered":
            self.stats.sandbox_analyses += 1
            self.wanted.discard(sha)
        # nonexec and rejected outcomes carry no record
        if outcome.record is not None and sha not in self.records:
            self.records[sha] = outcome.record
            added.append(sha)
            if outcome.kind == "recovered":
                self.profiler.count("ancillaries_recovered")

    def defer(self, sha: str, index: int) -> None:
        """Park a below-threshold sample with its static identifiers."""
        self.pending[sha] = index
        sample = self.world.samples[index]
        quick = self._engine.extract_static_only(
            sample, ScanContext.for_sample(sample.raw))
        self._pending_ids[sha] = frozenset(quick.identifiers)

    def _emit(self, journal: Optional[Callable[[SampleOutcome], None]],
              added: List[str], outcome: SampleOutcome) -> None:
        if journal is not None:
            journal(outcome)
        self.apply(outcome, added)

    def _promote(self, emit: Callable[[SampleOutcome], None]) -> int:
        """Promote deferred samples whose wallets are now confirmed."""
        with self.profiler.stage("wallet-exception sweep",
                                 items=len(self.pending)):
            matches = sorted(
                (index, sha) for sha, index in self.pending.items()
                if self._pending_ids[sha] & self.confirmed)
            confirmed = frozenset(self.confirmed) if matches else frozenset()
            # a match's static identifiers meet the confirmed set, so
            # its sweep is always an exception
            for index, _sha in matches:
                emit(stage2_sweep(self.world.samples[index], index,
                                  confirmed, self._engine))
            return len(matches)

    def _recover(self, seeds: List[str], arrived_now: List[str],
                 emit: Callable[[SampleOutcome], None]) -> int:
        """Dropper-chain recovery over the arrived samples.

        The first wave is the links of ``seeds`` plus the wanted
        samples that arrived just now.
        """
        vt = self.world.vt
        with self.profiler.stage("ancillary recovery"):
            linked = self.wanted.intersection(arrived_now)
            for sha in dict.fromkeys(seeds):
                linked.update(linked_hashes(self.records[sha], vt))
            return recover_linked(linked, partial(linked_hashes, vt=vt),
                                  partial(self._admit_linked, emit))

    def _admit_linked(self, emit: Callable[[SampleOutcome], None],
                      sha: str) -> Optional[MinerRecord]:
        """Recovery's admission test: an arrived executable malware
        sample not kept yet.  A linked sample that has not arrived is
        wanted until it arrives or is admitted."""
        if sha in self.records:
            self.wanted.discard(sha)
            return None
        index = self.arrived.get(sha)
        if index is None:
            if self.world.sample_by_hash(sha) is not None:
                self.wanted.add(sha)
            return None
        self.wanted.discard(sha)
        sample = self.world.samples[index]
        if (not self._checker.is_executable(sample.raw)
                or not self._checker.is_malware(sample.sha256)):
            return None
        record, verdict = analyze_linked_sample(sample, self._engine)
        emit(SampleOutcome(index, sha, "recovered", verdict=verdict,
                           record=record))
        return record

    def rebuild_wanted(self) -> None:
        """Re-derive the wanted list: linked hashes of kept records
        whose samples exist but have not arrived (an arrived, unadmitted
        link failed its deterministic checks for good)."""
        self.wanted = {
            sha for record in self.records.values()
            for sha in linked_hashes(record, self.world.vt)
            if sha not in self.records and sha not in self.arrived
            and self.world.sample_by_hash(sha) is not None}

    def finish(self, copy: bool = False) -> Tuple[
            List[MinerRecord], Dict[str, SanityVerdict], PipelineStats]:
        """Kept records, final verdicts and the funnel.

        The still-pending samples get their below-threshold verdict and
        the miner/ancillary/per-feed counts are taken over the kept
        records.  ``copy=True`` leaves the fold's own verdicts and
        stats untouched (a fold still in progress).
        """
        verdicts = dict(self.verdicts) if copy else self.verdicts
        stats = dataclasses.replace(self.stats) if copy else self.stats
        for sha in sorted(self.pending, key=self.pending.get):
            verdicts[sha] = below_threshold_verdict(sha)
        kept = list(self.records.values())
        with self.profiler.stage("funnel accounting", items=len(kept)):
            stats.miners = stats.ancillaries = 0
            stats.by_source = {}
            for record in kept:
                stats.count_kept(
                    record, self.world.sample_by_hash(record.sha256))
        return kept, verdicts, stats


class MeasurementTail:
    """Profit analysis -> proxy identification -> aggregation ->
    enrichment, the end every driver shares.

    :meth:`add` polls the wallets no earlier call brought (sorted) and
    applies the proxy rule to the records against every profile so
    far; proxies only grow, so adding records in windows ends where
    adding them at once does.  :meth:`campaigns` cuts and enriches.
    """

    def __init__(self, profit: ProfitAnalyzer,
                 profiler: Optional[PipelineProfiler] = None) -> None:
        self._profit = profit
        self.profiler = profiler or PipelineProfiler()
        self.profiles: Dict[str, WalletProfile] = {}
        self.proxy_ips: Set[str] = set()
        self._polled: Set[str] = set()
        self._kept = 0

    def add(self, records: Iterable[MinerRecord]
            ) -> Tuple[Dict[str, WalletProfile], Set[str]]:
        """Profile and proxy-check ``records``; returns the profiles
        and proxies they added."""
        identifiers: Set[str] = set()
        candidates: List[Tuple[str, List[str]]] = []
        for record in records:
            self._kept += 1
            identifiers.update(record.identifiers)
            candidates.extend(proxy_candidates((record,)))
        fresh = sorted(identifiers - self._polled)
        self._polled.update(fresh)
        with self.profiler.stage("profit analysis", items=len(fresh)):
            hits = self._profit.profile_many(fresh)
        self.profiles.update(hits)
        with self.profiler.stage("proxy identification"):
            proxies = find_proxies(candidates, self.profiles) - self.proxy_ips
        self.proxy_ips |= proxies
        return hits, proxies

    def campaigns(self, aggregate: Callable[[Set[str]], List[Campaign]],
                  enricher: Optional[CampaignEnricher] = None
                  ) -> List[Campaign]:
        """Campaigns from ``aggregate(proxy_ips)``, the driver's own
        aggregator, enriched when an ``enricher`` is given."""
        with self.profiler.stage("aggregation", items=self._kept):
            campaigns = aggregate(self.proxy_ips)
        if enricher is not None:
            with self.profiler.stage("enrichment", items=len(campaigns)):
                enricher.enrich_all(campaigns, self.profiles)
        return campaigns


class MeasurementPipeline:
    """The full measurement methodology against a (synthetic) world:
    one fold step over every sample in index order, then the tail.

    ``policy`` and ``positives_threshold`` are the two method knobs the
    grouping ablation and the AV-threshold sweep turn; ingestion and
    the out-of-core pipeline always run the paper's method.  Stage
    timings land in :attr:`profiler`.
    """

    def __init__(self, world: SyntheticWorld,
                 policy: Optional[GroupingPolicy] = None,
                 positives_threshold: int = MALWARE_POSITIVES_THRESHOLD
                 ) -> None:
        self.world = world
        self.profiler = PipelineProfiler()
        self._policy = policy or GroupingPolicy.full()
        self._checker, self._engine = build_analysis_components(
            world, positives_threshold)
        self._profit = ProfitAnalyzer(world.pool_directory)

    def run(self) -> MeasurementResult:
        """Execute all pipeline stages; returns the measurement result."""
        world = self.world
        try:
            with profiled_scan(self.profiler):
                fold = MeasurementFold(world, self._checker, self._engine,
                                       self.profiler)
                fold.step(range(len(world.samples)))
                kept, verdicts, stats = fold.finish()
                with self.profiler.stage("stock-tool facts",
                                         items=len(kept)):
                    facts = add_stock_tool_facts(
                        {}, kept, world.stock_catalog, world.sample_by_hash)
                tail = MeasurementTail(self._profit, self.profiler)
                tail.add(kept)
                campaigns = tail.campaigns(
                    lambda proxies: CampaignAggregator(
                        world.osint, self._policy,
                        proxy_ips=proxies).aggregate(kept),
                    CampaignEnricher(world.vt, facts))
                return MeasurementResult(
                    records=kept, campaigns=campaigns,
                    profiles=tail.profiles, verdicts=verdicts,
                    stats=stats, proxy_ips=tail.proxy_ips)
        finally:
            release_caches()
