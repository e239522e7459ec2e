"""Sharded campaign aggregation is bit-identical to the batch graph.

The property extends the repo's batch ≡ incremental equivalence to
batch ≡ sharded: for any record set and any shard count, the sharded
aggregator's finalized campaigns equal the batch graph's, record for
record — including components whose identifiers span every shard.  The
batch side is the independent networkx cut in
``tests/reference_aggregation.py``, not the union-find core every shard
is built with.
"""

from zlib import crc32

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import GroupingPolicy
from repro.core.records import MinerRecord
from repro.osint.feeds import OsintFeeds
from repro.scale.shards import ShardedCampaignAggregator, shard_of
from tests.reference_aggregation import ReferenceAggregator

# -- strategies (mirrors tests/test_property_aggregation.py) ---------------

_wallets = st.sampled_from([f"W{i}" for i in range(8)])
_urls = st.sampled_from([f"http://h{i}.ru/a.exe" for i in range(4)])


@st.composite
def miner_records(draw, max_records=12):
    n = draw(st.integers(min_value=1, max_value=max_records))
    records = []
    for i in range(n):
        record = MinerRecord(sha256=f"s{i:04d}")
        wallets = draw(st.lists(_wallets, max_size=2, unique=True))
        record.identifiers = wallets
        record.identifier_coins = ["XMR"] * len(wallets)
        if draw(st.booleans()):
            record.itw_urls = [draw(_urls)]
        if draw(st.booleans()) and i > 0:
            record.parents = [f"s{draw(st.integers(0, i - 1)):04d}"]
        record.type = "Miner" if wallets else "Ancillary"
        records.append(record)
    return records


def _batch(records, proxy_ips=None):
    return ReferenceAggregator(OsintFeeds(), GroupingPolicy.full(),
                               proxy_ips=proxy_ips).aggregate(records)


def _sharded(records, k, proxy_ips=None):
    return ShardedCampaignAggregator(OsintFeeds(),
                                     GroupingPolicy.full(),
                                     proxy_ips=proxy_ips,
                                     num_shards=k).aggregate(records)


class TestShardOf:
    def test_deterministic_and_in_range(self):
        record = MinerRecord(sha256="ab" * 32, identifiers=["Wz", "Wa"])
        for k in (1, 2, 8, 16):
            assert 0 <= shard_of(record, k) < k
            assert shard_of(record, k) == shard_of(record, k)

    def test_keyed_on_min_identifier(self):
        a = MinerRecord(sha256="00" * 32, identifiers=["Wa", "Wz"])
        b = MinerRecord(sha256="ff" * 32, identifiers=["Wa"])
        assert shard_of(a, 16) == shard_of(b, 16)
        assert shard_of(a, 16) == crc32(b"Wa") % 16

    def test_identifier_less_uses_sha(self):
        record = MinerRecord(sha256="ab" * 32)
        assert shard_of(record, 16) == crc32(("ab" * 32).encode()) % 16

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            ShardedCampaignAggregator(OsintFeeds(), num_shards=0)


class TestShardedEquivalence:
    @pytest.mark.parametrize("k", [1, 2, 8, 16])
    def test_identifiers_spanning_all_shards(self, k):
        """A chain that provably crosses every shard still comes out as
        one campaign, identical to the batch result."""
        # one wallet per shard bucket: find, for each target shard, a
        # wallet whose crc32 lands there
        wallets = {}
        i = 0
        while len(wallets) < k:
            wallet = f"SPAN{i}"
            wallets.setdefault(crc32(wallet.encode()) % k, wallet)
            i += 1
        spanning = sorted(wallets.values())
        records = [MinerRecord(sha256=f"{j:064x}", identifiers=[w],
                               identifier_coins=["XMR"])
                   for j, w in enumerate(spanning)]
        # the bridge shares every wallet, fusing all k shards
        records.append(MinerRecord(sha256=f"{99:064x}",
                                   identifiers=spanning,
                                   identifier_coins=["XMR"] * len(spanning)))
        # sanity: the singles really do live on k distinct shards
        assert {shard_of(r, k) for r in records[:-1]} == set(range(k)) \
            or k == 1
        batch = _batch(records)
        sharded = _sharded(records, k)
        assert len(batch) == 1
        assert sharded == batch

    @pytest.mark.parametrize("k", [1, 2, 8, 16])
    def test_tier1_world_records(self, k, small_world, pipeline_result):
        """On the real extracted record set the sharded output is
        bit-identical (same order, ids, records, everything)."""
        batch = ReferenceAggregator(
            small_world.osint, proxy_ips=pipeline_result.proxy_ips
        ).aggregate(pipeline_result.records)
        agg = ShardedCampaignAggregator(
            small_world.osint, proxy_ips=pipeline_result.proxy_ips,
            num_shards=k)
        assert agg.aggregate(pipeline_result.records) == batch
        assert agg.max_shard_records > 0
        if k > 1:
            # the shard high-water mark must actually be a partition,
            # not one shard holding everything
            assert agg.max_shard_records < len(pipeline_result.records)

    def test_keep_records_false_strips_records(self, small_world,
                                               pipeline_result):
        lean = ShardedCampaignAggregator(
            small_world.osint, proxy_ips=pipeline_result.proxy_ips,
            num_shards=8, keep_records=False
        ).aggregate(pipeline_result.records)
        full = ShardedCampaignAggregator(
            small_world.osint, proxy_ips=pipeline_result.proxy_ips,
            num_shards=8).aggregate(pipeline_result.records)
        assert [c.records for c in lean] == [[] for _ in lean]
        assert [c.sample_hashes for c in lean] == \
            [c.sample_hashes for c in full]
        assert [c.campaign_id for c in lean] == \
            [c.campaign_id for c in full]

    @pytest.mark.parametrize("k", [4, 8])
    def test_source_reiterated_not_cached(self, k, small_world,
                                          pipeline_result):
        """aggregate_source() pulls a fresh iterator per pass — the
        contract a disk-backed record store relies on — and makes every
        pass in the calling process, so a counting source sees all
        ``1 + k`` of them."""
        calls = []

        def source():
            calls.append(1)
            return iter(pipeline_result.records)

        agg = ShardedCampaignAggregator(
            small_world.osint, proxy_ips=pipeline_result.proxy_ips,
            num_shards=k)
        campaigns = agg.aggregate_source(source)
        assert len(calls) == 1 + k  # boundary scan + one per shard
        assert campaigns == ReferenceAggregator(
            small_world.osint, proxy_ips=pipeline_result.proxy_ips
        ).aggregate(pipeline_result.records)
        assert agg.max_shard_records > 0


class TestShardedProperties:
    @given(miner_records(), st.sampled_from([1, 2, 8, 16]))
    @settings(max_examples=60, deadline=None)
    def test_equivalence_any_records_any_k(self, records, k):
        assert _sharded(records, k) == _batch(records)

    @given(miner_records())
    @settings(max_examples=30, deadline=None)
    def test_shard_count_invariance(self, records):
        baseline = _sharded(records, 1)
        for k in (2, 8, 16):
            assert _sharded(records, k) == baseline
