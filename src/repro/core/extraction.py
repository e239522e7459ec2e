"""Extraction engine: merge static + dynamic findings into Table I rows.

Also performs CNAME de-aliasing (§III-E): contacted domains that are not
themselves known pools are resolved (live DNS, then passive-DNS history)
and, when a CNAME chain lands on a known pool, the domain is recorded as
an alias and the record's POOL field is normalised to the real pool.
"""

import datetime
from typing import Dict, List, Optional, Set

from repro.common.simtime import Date
from repro.core.dynamic_analysis import DynamicAnalyzer, DynamicFindings
from repro.core.records import MinerRecord
from repro.core.static_analysis import StaticAnalyzer, StaticFindings
from repro.corpus.model import SampleRecord
from repro.intel.vt import VtService
from repro.netsim.dns import PassiveDns, Resolver
from repro.perf.scan import ScanContext
from repro.pools.directory import PoolDirectory

#: the sandbox clock and passive-DNS cut-off every driver defaults to
DEFAULT_ANALYSIS_DATE = datetime.date(2018, 9, 1)


class ExtractionEngine:
    """Per-sample extraction: static + dynamic + metadata + de-aliasing."""

    def __init__(self, static: StaticAnalyzer, dynamic: DynamicAnalyzer,
                 vt: VtService, pools: PoolDirectory,
                 resolver: Resolver, passive_dns: PassiveDns,
                 analysis_date: Date = DEFAULT_ANALYSIS_DATE) -> None:
        self._static = static
        self._dynamic = dynamic
        self._vt = vt
        self._pools = pools
        self._resolver = resolver
        self._passive = passive_dns
        self._analysis_date = analysis_date
        #: alias domain -> pool name cache across samples
        self._alias_cache: Dict[str, Optional[str]] = {}

    # ------------------------------------------------------------------

    def extract_with_report(self, sample: SampleRecord, ctx: ScanContext):
        """The merged record for one sample, and its sandbox report (for
        sanity checks); ``ctx`` is the sample's scan context."""
        record = MinerRecord(sha256=sample.sha256, source=sample.source)
        static = self._static.analyze(ctx)
        dynamic = self._dynamic.analyze(sample)
        self._merge_static(record, static)
        self._merge_dynamic(record, dynamic)
        self._merge_metadata(record, sample)
        self._dealias(record)
        record.type = "Miner" if record.identifiers else "Ancillary"
        return record, dynamic.report

    def extract_static_only(self, sample: SampleRecord,
                            ctx: ScanContext) -> MinerRecord:
        """Cheap static-only pass (used by the wallet-exception sweep)."""
        record = MinerRecord(sha256=sample.sha256, source=sample.source)
        static = self._static.analyze(ctx)
        self._merge_static(record, static)
        self._merge_metadata(record, sample)
        record.type = "Miner" if record.identifiers else "Ancillary"
        return record

    # ------------------------------------------------------------------

    def _merge_static(self, record: MinerRecord,
                      findings: StaticFindings) -> None:
        record.used_static = True
        record.packer = findings.packer
        record.entropy = findings.entropy
        record.obfuscated = findings.obfuscated
        for classified in findings.identifiers:
            self._add_identifier(record, classified.value,
                                 classified.ticker)
        for host, port in findings.stratum_urls:
            if record.url_pool is None:
                record.url_pool = f"stratum+tcp://{host}:{port}"
                record.dst_port = port

    def _merge_dynamic(self, record: MinerRecord,
                       findings: DynamicFindings) -> None:
        record.used_dynamic = True
        for classified in findings.identifiers:
            self._add_identifier(record, classified.value,
                                 classified.ticker)
        for host, port in findings.stratum_targets:
            url = f"stratum+tcp://{host}:{port}"
            if record.url_pool is None:
                record.url_pool = url
                record.dst_port = port
        for login, password, agent in findings.logins:
            if record.user is None:
                record.user = login
                record.password = password or None
                record.agent = agent or None
        if findings.nthreads is not None:
            record.nthreads = findings.nthreads
        record.dns_rr = sorted(
            set(record.dns_rr) | set(findings.contacted_domains))
        record.dropped = list(findings.dropped)
        if findings.dst_ips and record.dst_ip is None:
            record.dst_ip = findings.dst_ips[0]

    def _merge_metadata(self, record: MinerRecord,
                        sample: SampleRecord) -> None:
        report = self._vt.get_report(sample.sha256)
        if report is None:
            return
        record.first_seen = report.first_seen
        record.positives = report.positives()
        record.itw_urls = list(report.itw_urls)
        record.parents = list(report.parents)
        record.dns_rr = sorted(
            set(record.dns_rr) | set(report.contacted_domains))

    def _add_identifier(self, record: MinerRecord, value: str,
                        ticker: Optional[str]) -> None:
        if value not in record.identifiers:
            record.identifiers.append(value)
            record.identifier_coins.append(ticker)
            if record.user is None:
                record.user = value

    # ------------------------------------------------------------------
    # CNAME de-aliasing
    # ------------------------------------------------------------------

    def _dealias(self, record: MinerRecord) -> None:
        """Classify contacted hosts: known pool, alias of a pool, or other.

        The first known pool (direct or via alias) becomes the record's
        normalised POOL; alias domains are retained for aggregation.
        """
        hosts: List[str] = []
        if record.url_pool:
            host = record.url_pool.split("://", 1)[1].rsplit(":", 1)[0]
            hosts.append(host.lower())
        hosts.extend(record.dns_rr)
        seen: Set[str] = set()
        for host in hosts:
            if host in seen or not any(c.isalpha() for c in host):
                continue
            seen.add(host)
            pool = self._pools.pool_for_domain(host)
            if pool is not None:
                if record.pool is None:
                    record.pool = pool.config.name
                continue
            alias_pool = self._alias_target(host)
            if alias_pool is not None:
                if host not in record.cname_aliases:
                    record.cname_aliases.append(host)
                if record.pool is None:
                    record.pool = alias_pool

    def _alias_target(self, domain: str) -> Optional[str]:
        """Pool name a domain aliases, via live DNS then passive DNS."""
        if domain in self._alias_cache:
            return self._alias_cache[domain]
        result: Optional[str] = None
        live = self._resolver.resolve(domain, self._analysis_date)
        for target in live.cname_chain:
            pool = self._pools.pool_for_domain(target)
            if pool is not None:
                result = pool.config.name
                break
        if result is None:
            for target in self._passive.ever_cname_targets(domain):
                pool = self._pools.pool_for_domain(target)
                if pool is not None:
                    result = pool.config.name
                    break
        self._alias_cache[domain] = result
        return result
