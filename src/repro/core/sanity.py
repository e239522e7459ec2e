"""Sanity checks (§III-B): is-executable, is-malware, is-miner.

The order matters and mirrors the paper: executability comes from the
magic number; malware status from AV positives (threshold 10) with two
carve-outs (the stock-tool hash whitelist, and the illicit-wallet
exception that keeps low-positive samples whose wallet also appears in
confirmed malware); miner status from YARA rules, Stratum IoCs, known
pool DNS, OSINT IoC matches, and the >=10 "Miner"-label query.
"""

from dataclasses import dataclass
from typing import Optional, Set

from repro.binfmt.format import ExecutableKind, magic_kind
from repro.corpus.model import SampleRecord
from repro.intel.vt import VtService
from repro.osint.feeds import OsintFeeds
from repro.perf.scan import ScanContext
from repro.pools.directory import PoolDirectory
from repro.sandbox.emulator import SandboxReport
from repro.yarm.builtin import builtin_miner_rules
from repro.yarm.engine import RuleSet

#: the paper's AV-positives threshold for calling a sample malware.
MALWARE_POSITIVES_THRESHOLD = 10

#: vendors that must label a sample "Miner" for the label-based check.
MINER_LABEL_THRESHOLD = 10


@dataclass
class SanityVerdict:
    """Outcome of the three checks for one sample."""

    sha256: str
    is_executable: bool = False
    is_malware: bool = False
    is_miner: bool = False
    used_wallet_exception: bool = False
    whitelisted_tool: bool = False
    reasons: Optional[str] = None

    @property
    def accepted(self) -> bool:
        return self.is_executable and self.is_malware and self.is_miner


class SanityChecker:
    """Stateful checker over a corpus (needs VT, OSINT and pool data)."""

    def __init__(self, vt: VtService, osint: OsintFeeds,
                 pools: PoolDirectory,
                 tool_whitelist: Optional[Set[str]] = None,
                 positives_threshold: int = MALWARE_POSITIVES_THRESHOLD,
                 rules: Optional[RuleSet] = None) -> None:
        self._vt = vt
        self._osint = osint
        self._pools = pools
        self._whitelist = tool_whitelist or set()
        self._threshold = positives_threshold
        self._rules = rules or builtin_miner_rules()
        #: wallets already confirmed inside >=threshold-positive malware;
        #: drives the illicit-wallet exception.
        self.confirmed_illicit_wallets: Set[str] = set()

    # -- individual checks -------------------------------------------------

    def is_executable(self, raw: bytes) -> bool:
        """Magic-number check: PE / ELF / JAR only."""
        return magic_kind(raw) in (ExecutableKind.PE, ExecutableKind.ELF,
                                   ExecutableKind.JAR)

    def is_malware(self, sha256: str,
                   sample_wallets: Optional[Set[str]] = None) -> bool:
        """AV-positives check with whitelist and wallet exception."""
        if sha256 in self._whitelist:
            return False
        report = self._vt.get_report(sha256)
        if report is None:
            return False
        if report.positives() >= self._threshold:
            return True
        if sample_wallets and (sample_wallets
                               & self.confirmed_illicit_wallets):
            return True
        return False

    def is_miner(self, sample: SampleRecord, ctx: ScanContext,
                 sandbox_report: Optional[SandboxReport] = None) -> bool:
        """Miner check: YARA, Stratum flows, pool DNS, labels, OSINT.

        ``ctx`` is the sample's scan context, the one static analysis
        read."""
        # (a) YARA rules over the (unpacked) scan context
        if self._rules.scan(ctx):
            return True
        # (b) dynamic IoCs: Stratum flows or known-pool DNS resolutions
        if sandbox_report is not None:
            if sandbox_report.flows.stratum_flows():
                return True
            for domain in sandbox_report.dns_queries:
                if self._pools.is_known_pool_domain(domain):
                    return True
        # (c) VT advanced queries: contacted pool domains / miner labels
        report = self._vt.get_report(sample.sha256)
        if report is not None:
            for domain in report.contacted_domains:
                if self._pools.is_known_pool_domain(domain):
                    return True
            if report.miner_label_count() >= MINER_LABEL_THRESHOLD:
                return True
        # (d) OSINT: hash appears in a known operation's IoC set
        if self._osint.operation_for_sample(sample.sha256) is not None:
            return True
        return False

    # -- combined -----------------------------------------------------------

    def check(self, sample: SampleRecord,
              sandbox_report: Optional[SandboxReport] = None,
              sample_wallets: Optional[Set[str]] = None) -> SanityVerdict:
        """Run all three checks on one sample; returns the verdict."""
        verdict = SanityVerdict(sha256=sample.sha256)
        verdict.whitelisted_tool = sample.sha256 in self._whitelist
        verdict.is_executable = self.is_executable(sample.raw)
        if not verdict.is_executable:
            verdict.reasons = "not an executable (magic number)"
            return verdict
        report = self._vt.get_report(sample.sha256)
        positives = report.positives() if report else 0
        verdict.is_malware = self.is_malware(sample.sha256, sample_wallets)
        if (verdict.is_malware and positives < self._threshold
                and not verdict.whitelisted_tool):
            verdict.used_wallet_exception = True
        if not verdict.is_malware:
            verdict.reasons = (
                "whitelisted mining tool" if verdict.whitelisted_tool
                else f"only {positives} AV positives"
            )
            return verdict
        verdict.is_miner = self.is_miner(
            sample, ScanContext.for_sample(sample.raw), sandbox_report)
        if not verdict.is_miner:
            verdict.reasons = "no mining IoCs"
        return verdict

    def confirm_wallets(self, wallets: Set[str]) -> None:
        """Register wallets seen in confirmed malware (exception pool)."""
        self.confirmed_illicit_wallets |= wallets
