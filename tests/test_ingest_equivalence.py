"""Batch-vs-incremental equivalence: the streaming headline invariant.

The ingestion service must land on *exactly* the batch pipeline's
output — records, verdicts, funnel stats, proxies, campaign partition
and per-campaign profit — for any batch width, seed and scale, and the
incremental aggregator must agree with the graph aggregator on any
record stream in any order.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import CampaignAggregator, GroupingPolicy
from repro.core.pipeline import MeasurementPipeline
from repro.corpus.generator import generate_world
from repro.corpus.model import ScenarioConfig
from repro.ingest import IncrementalAggregator, IngestionService
from repro.ingest.service import diff_measurements
from repro.osint.feeds import OsintFeeds
from tests.test_property_aggregation import miner_records


def run_ingest(world, tmp_path, **kwargs):
    kwargs.setdefault("batch_days", 30)
    kwargs.setdefault("fsync", False)
    service = IngestionService(world, tmp_path / "ck", **kwargs)
    return service.run()


class TestEndToEndEquivalence:
    def test_weekly_feed_equals_batch(self, small_world, pipeline_result,
                                      tmp_path):
        ingest = run_ingest(small_world, tmp_path, batch_days=7)
        assert diff_measurements(pipeline_result, ingest.result) == []
        assert ingest.resumed_from == 0
        assert len(ingest.batches) == ingest.total_batches

    @pytest.mark.parametrize("batch_days", [1, 30, 365, 10**6])
    def test_any_batch_width(self, tmp_path, batch_days):
        """Daily drops, monthly drops, yearly drops and one mega-batch
        all converge to the same measurement."""
        world = generate_world(ScenarioConfig(seed=7, scale=0.003))
        expected = MeasurementPipeline(world).run()
        ingest = run_ingest(world, tmp_path, batch_days=batch_days)
        assert diff_measurements(expected, ingest.result) == []

    @pytest.mark.parametrize("seed", [2, 3, 11])
    def test_any_seed(self, tmp_path, seed):
        world = generate_world(ScenarioConfig(seed=seed, scale=0.003))
        expected = MeasurementPipeline(world).run()
        ingest = run_ingest(world, tmp_path, batch_days=45)
        assert diff_measurements(expected, ingest.result) == []

    def test_batch_metrics_account_for_every_sample(self, small_world,
                                                    tmp_path):
        ingest = run_ingest(small_world, tmp_path, batch_days=90)
        assert sum(m.samples for m in ingest.batches) == \
            len(small_world.samples)
        assert sum(m.analyzed for m in ingest.batches) == \
            len(small_world.samples)
        assert sum(m.admitted for m in ingest.batches) == \
            len(ingest.result.records)
        assert all(m.new_miners + m.promotions + m.recovered
                   <= m.admitted for m in ingest.batches)


def _clusterings(campaigns):
    return frozenset(frozenset(c.sample_hashes) for c in campaigns)


class TestIncrementalAggregatorProperties:
    @given(miner_records())
    @settings(max_examples=50, deadline=None)
    def test_stream_equals_graph(self, records):
        """Feeding records one at a time reproduces the batch graph's
        campaigns exactly — ids, members, everything."""
        incremental = IncrementalAggregator(OsintFeeds())
        for record in records:
            incremental.add_record(record)
        batch = CampaignAggregator(
            OsintFeeds(), GroupingPolicy.full()).aggregate(records)
        assert incremental.campaigns() == batch

    @given(miner_records(), st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_arrival_order_irrelevant(self, records, rnd):
        shuffled = list(records)
        rnd.shuffle(shuffled)
        forward = IncrementalAggregator(OsintFeeds())
        for record in records:
            forward.add_record(record)
        permuted = IncrementalAggregator(OsintFeeds())
        for record in shuffled:
            permuted.add_record(record)
        assert _clusterings(forward.campaigns()) == \
            _clusterings(permuted.campaigns())

    @given(miner_records())
    @settings(max_examples=25, deadline=None)
    def test_materialisation_is_non_destructive(self, records):
        """campaigns() mid-stream never perturbs the final state."""
        probed = IncrementalAggregator(OsintFeeds())
        for record in records:
            probed.add_record(record)
            probed.campaigns()  # observe after every arrival
        unprobed = IncrementalAggregator(OsintFeeds())
        for record in records:
            unprobed.add_record(record)
        assert probed.campaigns() == unprobed.campaigns()

    @given(miner_records())
    @settings(max_examples=25, deadline=None)
    def test_late_proxy_equals_early_proxy(self, records):
        """Learning a proxy IP after the fact yields the same campaigns
        as knowing it up front (the retroactive-edge guarantee)."""
        ip = "198.51.100.7"
        for record in records:
            record.dst_ip = ip
        early = CampaignAggregator(OsintFeeds(), GroupingPolicy.full(),
                                   proxy_ips={ip}).aggregate(records)
        late = IncrementalAggregator(OsintFeeds())
        for record in records:
            late.add_record(record)
        late.add_proxy_ips([ip])
        assert late.campaigns() == early

    def test_duplicate_record_rejected(self):
        from tests.test_core_aggregation import miner
        aggregator = IncrementalAggregator(OsintFeeds())
        aggregator.add_record(miner("s1", wallets=["W1"]))
        with pytest.raises(ValueError, match="duplicate"):
            aggregator.add_record(miner("s1", wallets=["W1"]))
