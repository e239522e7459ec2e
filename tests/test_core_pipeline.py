"""Integration tests: the full measurement pipeline on the shared world."""

import datetime

import pytest

from repro.analysis.validation import aggregation_quality
from repro.core.aggregation import GroupingPolicy
from repro.core.pipeline import MeasurementPipeline

D = datetime.date


class TestSanityFunnel:
    def test_junk_filtered(self, small_world, pipeline_result):
        kept = {r.sha256 for r in pipeline_result.records}
        junk = {s.sha256 for s in small_world.samples if s.kind == "junk"}
        # no more than a sliver of junk can leak through (AV-labelled
        # generic malware without mining IoCs is rejected)
        assert len(kept & junk) / max(1, len(junk)) < 0.01

    def test_miners_recovered(self, small_world, pipeline_result):
        true_miners = {s.sha256 for s in small_world.samples
                       if s.kind == "miner"}
        kept_miners = {r.sha256 for r in pipeline_result.miner_records()}
        recall = len(true_miners & kept_miners) / len(true_miners)
        assert recall > 0.9

    def test_stats_accounting(self, pipeline_result):
        stats = pipeline_result.stats
        assert stats.collected > stats.executables > stats.miners > 0
        assert stats.miners + stats.ancillaries == len(
            pipeline_result.records)

    def test_source_breakdown(self, pipeline_result):
        """VT and Palo Alto dominate, like Table III."""
        by_source = pipeline_result.stats.by_source
        assert by_source.get("Virus Total", 0) > \
            by_source.get("Hybrid Analysis", 0)

    def test_wallet_exception_used(self, pipeline_result):
        """Some crypter-packed low-positive samples enter through the
        illicit-wallet exception."""
        assert pipeline_result.stats.wallet_exception_hits >= 0
        exception_verdicts = [
            v for v in pipeline_result.verdicts.values()
            if v.used_wallet_exception
        ]
        assert len(exception_verdicts) == \
            pipeline_result.stats.wallet_exception_hits


class TestCampaignRecovery:
    def test_aggregation_quality(self, small_world, pipeline_result):
        scores = aggregation_quality(small_world, pipeline_result)
        assert scores.precision > 0.95
        assert scores.recall > 0.80

    def test_case_studies_recovered(self, small_world, pipeline_result):
        for label, expected_xmr in [("Freebuf", 163_756),
                                    ("USA-138", 7_242)]:
            truth = [c for c in small_world.ground_truth
                     if c.label == label][0]
            campaign = pipeline_result.campaign_for_wallet(
                truth.identifiers[0])
            assert campaign is not None, label
            assert campaign.total_xmr == pytest.approx(
                truth.actual_xmr, rel=0.05)

    def test_freebuf_structure(self, small_world, pipeline_result):
        truth = [c for c in small_world.ground_truth
                 if c.label == "Freebuf"][0]
        campaign = pipeline_result.campaign_for_wallet(
            truth.identifiers[0])
        assert campaign.num_wallets == 7
        assert set(campaign.cname_aliases) >= {
            "xt.freebuf.info", "x.alibuf.com", "xmr.honker.info"}

    def test_usa138_dual_coin(self, small_world, pipeline_result):
        truth = [c for c in small_world.ground_truth
                 if c.label == "USA-138"][0]
        campaign = pipeline_result.campaign_for_wallet(
            truth.identifiers[0])
        assert campaign.coins == {"XMR", "ETN"}

    def test_profiles_cover_paying_wallets(self, small_world,
                                           pipeline_result):
        for campaign in small_world.ground_truth:
            if (campaign.coin == "XMR" and campaign.target_xmr > 100
                    and not campaign.custom_driven):
                hits = [i for i in campaign.identifiers
                        if i in pipeline_result.profiles]
                assert hits, campaign.campaign_id

    def test_total_earnings_match_ground_truth(self, small_world,
                                               pipeline_result):
        truth_total = sum(c.actual_xmr for c in small_world.ground_truth
                          if c.coin == "XMR")
        measured = sum(c.total_xmr for c in pipeline_result.campaigns)
        assert measured == pytest.approx(truth_total, rel=0.05)


class TestPolicyAblations:
    def test_wallet_only_recovers_fewer_links(self, small_world,
                                              pipeline_result):
        baseline = MeasurementPipeline(
            small_world, policy=GroupingPolicy.wallet_only()).run()
        full_scores = aggregation_quality(small_world, pipeline_result)
        base_scores = aggregation_quality(small_world, baseline)
        assert base_scores.recall <= full_scores.recall
        assert len(baseline.campaigns) >= len(pipeline_result.campaigns)

    def test_lower_av_threshold_keeps_more(self, small_world,
                                           pipeline_result):
        greedy = MeasurementPipeline(small_world,
                                     positives_threshold=5).run()
        assert greedy.stats.miners >= pipeline_result.stats.miners


@pytest.mark.parametrize("fields,wallet_paid,proxies", [
    ({"dst_ip": "0.0.0.0"}, True, set()),
    ({"dst_ip": "127.0.0.1"}, True, set()),
    ({"dst_ip": "proxy.example.com"}, True, set()),
    ({"dst_ip": "203.0.113.9", "pool": "crypto-pool.fr"}, True, set()),
    ({"dst_ip": "203.0.113.9"}, False, set()),
    ({"dst_ip": "203.0.113.9", "identifiers": []}, True, set()),
    ({"dst_ip": "203.0.113.9"}, True, {"203.0.113.9"}),
], ids=["unresolved-sentinel", "loopback-sentinel", "hostname",
        "known-pool", "wallet-without-pool-records", "no-identifiers",
        "proxy"])
def test_proxy_rule(fields, wallet_paid, proxies):
    """§III-C: only a non-pool IPv4 endpoint whose wallet shows pool
    activity is a proxy."""
    from repro.core.pipeline import find_proxies, proxy_candidates
    from repro.core.profit import WalletProfile
    from repro.core.records import MinerRecord, WalletRecord

    record = MinerRecord(**{"sha256": "ab" * 32, "identifiers": ["W1"],
                            **fields})
    pool_records = [WalletRecord(pool="minexmr", user="W1",
                                 total_paid=1.5)] if wallet_paid else []
    profiles = {"W1": WalletProfile("W1", records=pool_records)}
    assert find_proxies(proxy_candidates([record]), profiles) == proxies
