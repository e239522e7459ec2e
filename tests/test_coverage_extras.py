"""Focused tests for less-travelled code paths across modules."""

import datetime

import pytest

from repro.core.aggregation import GroupingPolicy
from repro.core.pipeline import MeasurementPipeline
from repro.corpus.generator import generate_world
from repro.corpus.model import ScenarioConfig

D = datetime.date


class TestScenarioKnobs:
    def test_samples_cap_enforced(self):
        world = generate_world(ScenarioConfig(
            seed=13, scale=0.004, samples_cap=5,
            include_junk=False, include_case_studies=False))
        from collections import Counter
        per_campaign = Counter(
            s.true_campaign_id for s in world.samples
            if s.kind == "miner" and s.true_campaign_id is not None)
        assert max(per_campaign.values()) <= 5

    def test_stride_affects_payment_granularity(self):
        fine = generate_world(ScenarioConfig(
            seed=14, scale=0.002, mining_stride_days=3,
            include_junk=False, include_case_studies=False))
        coarse = generate_world(ScenarioConfig(
            seed=14, scale=0.002, mining_stride_days=21,
            include_junk=False, include_case_studies=False))

        def payment_count(world):
            return sum(
                len(pool._account(w).payments)
                for pool in world.pool_directory.pools()
                for w in pool.known_wallets())

        assert payment_count(fine) > payment_count(coarse)

    def test_stride_preserves_totals(self):
        """Earnings targets hold regardless of simulation stride."""
        def total(stride):
            world = generate_world(ScenarioConfig(
                seed=15, scale=0.002, mining_stride_days=stride,
                include_junk=False, include_case_studies=False))
            return sum(c.actual_xmr for c in world.ground_truth
                       if c.coin == "XMR")

        assert total(3) == pytest.approx(total(14), rel=0.05)


class TestPolicyVariants:
    @pytest.fixture(scope="class")
    def world(self):
        return generate_world(ScenarioConfig(seed=16, scale=0.004,
                                             include_junk=False))

    def test_no_cname_policy_splits_freebuf(self, world):
        full = MeasurementPipeline(world).run()
        no_cname = MeasurementPipeline(
            world, policy=GroupingPolicy(cname_aliases=False)).run()
        truth = next(c for c in world.ground_truth
                     if c.label == "Freebuf")
        full_campaign = full.campaign_for_wallet(truth.identifiers[0])
        partial = no_cname.campaign_for_wallet(truth.identifiers[0])
        # without CNAME links the component can only shrink or stay
        assert partial.num_samples <= full_campaign.num_samples

    def test_no_hosting_policy_runs(self, world):
        result = MeasurementPipeline(
            world, policy=GroupingPolicy(hosting=False)).run()
        assert result.campaigns


class TestEnrichmentBothFlag:
    def test_both_row_computable(self, pipeline_result):
        """Table XI's 'Both' row: PPI and stock tooling together."""
        from repro.analysis import table11_infrastructure
        columns = table11_infrastructure(pipeline_result)
        for band in columns.values():
            assert band["both"] <= min(band["ppi"] + 1e-9,
                                       band["stock_tool"] + 1e-9)


class TestRecentWindowDefaults:
    def test_query_date_defaults_to_last_share(self):
        from repro.pools.pool import MiningPool, PoolConfig, Transparency
        pool = MiningPool(PoolConfig(
            "p", transparency=Transparency.RECENT_WINDOW,
            payout_threshold=0.05, recent_window_days=15))
        for i in range(40):
            pool.credit_mining_day(
                "W", D(2018, 6, 1) + datetime.timedelta(days=i), 2e6)
        stats = pool.api_wallet_stats("W")  # no query date passed
        assert stats.payments is not None
        cutoff = stats.last_share - datetime.timedelta(days=15)
        assert all(d >= cutoff for d, _ in stats.payments)


class TestAliasCache:
    def test_dealias_cache_consistency(self, small_world):
        """Repeated extraction of alias-using samples hits the cache
        and returns identical pool attributions."""
        from repro.core.dynamic_analysis import DynamicAnalyzer
        from repro.core.extraction import ExtractionEngine
        from repro.core.static_analysis import StaticAnalyzer
        from repro.perf.scan import ScanContext
        from repro.sandbox.emulator import Sandbox

        engine = ExtractionEngine(
            StaticAnalyzer(),
            DynamicAnalyzer(Sandbox(small_world.resolver)),
            small_world.vt, small_world.pool_directory,
            small_world.resolver, small_world.passive_dns)
        freebuf = next(c for c in small_world.ground_truth
                       if c.label == "Freebuf")
        samples = [small_world.sample_by_hash(sha)
                   for sha in freebuf.sample_hashes
                   if small_world.sample_by_hash(sha).kind == "miner"][:6]
        def pools():
            return [engine.extract_with_report(
                s, ScanContext.for_sample(s.raw))[0].pool for s in samples]

        pools_first = pools()
        pools_second = pools()
        assert pools_first == pools_second
        assert "minexmr" in pools_first or "crypto-pool" in pools_first


class TestResultHelpers:
    def test_campaign_for_unknown_wallet(self, pipeline_result):
        assert pipeline_result.campaign_for_wallet("GHOST") is None

    def test_campaigns_with_payments_subset(self, pipeline_result):
        paying = pipeline_result.campaigns_with_payments()
        assert set(c.campaign_id for c in paying) <= \
            set(c.campaign_id for c in pipeline_result.campaigns)
        assert all(c.total_xmr > 0 for c in paying)

    def test_xmr_campaigns_have_xmr_coins(self, pipeline_result):
        for campaign in pipeline_result.xmr_campaigns():
            assert "XMR" in campaign.coins
