"""World-consistency validation.

A generated :class:`~repro.corpus.model.SyntheticWorld` must satisfy a
set of structural invariants for the measurement pipeline's results to
be meaningful (unique hashes, VT coverage, ground-truth/sample linkage,
payment windows, DNS coverage of referenced pool domains).  The
validator checks all of them and returns human-readable violations.
It is a test helper: ``tests/test_corpus_validation.py`` runs it on a
generated world and on worlds broken one invariant at a time.
"""

import datetime
from dataclasses import dataclass, field
from typing import List

from repro.corpus.model import SyntheticWorld

_PAYMENT_WINDOW = (datetime.date(2010, 1, 1), datetime.date(2019, 6, 1))


__all__ = [
    "ValidationReport",
    "validate_world",
]


@dataclass
class ValidationReport:
    """Outcome of validating one world."""

    issues: List[str] = field(default_factory=list)
    checks_run: int = 0

    @property
    def ok(self) -> bool:
        return not self.issues

    def add(self, issue: str) -> None:
        """Record one violation."""
        self.issues.append(issue)


def validate_world(world: SyntheticWorld) -> ValidationReport:
    """Run every invariant check; returns the collected violations."""
    report = ValidationReport()
    _check_unique_hashes(world, report)
    _check_vt_coverage(world, report)
    _check_ground_truth_links(world, report)
    _check_campaign_windows(world, report)
    _check_payments(world, report)
    _check_pool_dns(world, report)
    _check_donation_whitelist(world, report)
    return report


def _check_unique_hashes(world, report: ValidationReport) -> None:
    report.checks_run += 1
    seen = set()
    for sample in world.samples:
        if sample.sha256 in seen:
            report.add(f"duplicate sample hash: {sample.sha256[:12]}")
        seen.add(sample.sha256)


def _check_vt_coverage(world, report: ValidationReport) -> None:
    report.checks_run += 1
    for sample in world.samples:
        if world.vt.get_report(sample.sha256) is None:
            report.add(f"sample without VT report: {sample.sha256[:12]}")
            break  # one example suffices


def _check_ground_truth_links(world, report: ValidationReport) -> None:
    report.checks_run += 1
    known_ids = {c.campaign_id for c in world.ground_truth}
    for sample in world.samples:
        if (sample.true_campaign_id is not None
                and sample.true_campaign_id not in known_ids):
            report.add(
                f"sample {sample.sha256[:12]} references unknown "
                f"campaign {sample.true_campaign_id}")
    for campaign in world.ground_truth:
        for sha in campaign.sample_hashes:
            if world.sample_by_hash(sha) is None:
                report.add(
                    f"campaign {campaign.campaign_id} lists missing "
                    f"sample {sha[:12]}")


def _check_campaign_windows(world, report: ValidationReport) -> None:
    report.checks_run += 1
    for campaign in world.ground_truth:
        if campaign.start and campaign.end and campaign.end < campaign.start:
            report.add(
                f"campaign {campaign.campaign_id} ends before it starts")
        if campaign.coin == "XMR" and campaign.start:
            if campaign.start < datetime.date(2014, 4, 18):
                report.add(
                    f"XMR campaign {campaign.campaign_id} predates the "
                    "Monero launch")


def _check_payments(world, report: ValidationReport) -> None:
    report.checks_run += 1
    low, high = _PAYMENT_WINDOW
    for pool in world.pool_directory.pools():
        for wallet in pool.known_wallets():
            account = pool._account(wallet)
            for when, amount in account.payments:
                if amount <= 0:
                    report.add(
                        f"non-positive payment at {pool.config.name}")
                    return
                if not low <= when <= high:
                    report.add(
                        f"payment outside the simulation window at "
                        f"{pool.config.name}: {when}")
                    return


def _check_pool_dns(world, report: ValidationReport) -> None:
    report.checks_run += 1
    probe = datetime.date(2018, 6, 1)
    for pool in world.pool_directory.pools():
        for domain in pool.config.domains:
            if not world.resolver.resolve(domain, probe).resolved:
                report.add(f"pool domain without A record: {domain}")


def _check_donation_whitelist(world, report: ValidationReport) -> None:
    report.checks_run += 1
    catalog_wallets = world.stock_catalog.donation_wallets()
    if not catalog_wallets <= world.osint.donation_wallets:
        report.add("donation whitelist misses catalog wallets")
    # no ground-truth campaign may own a donation wallet
    for campaign in world.ground_truth:
        overlap = set(campaign.identifiers) & catalog_wallets
        if overlap:
            report.add(
                f"campaign {campaign.campaign_id} owns donation "
                f"wallet(s): {sorted(overlap)[0][:12]}")
