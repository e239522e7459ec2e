"""Serving index ≡ direct pipeline queries.

The acceptance property for ``repro.serve``: every answer the index
gives (hash, wallet, campaign, domain, bulk scan) must equal what a
direct query against the measurement result would say.
"""

import pytest

from repro.reporting.dataset_export import campaign_summary
from repro.scale.columnar import RecordStore
from repro.serve.index import build_index
from repro.serve.snapshot import (
    derive_result_from_records,
    result_from_store,
)


@pytest.fixture(scope="module")
def index(pipeline_result):
    return build_index(pipeline_result, generation=1, source="test")


class TestHashTable:
    def test_every_sample_indexed(self, index, pipeline_result):
        assert index.counts()["hashes"] == len(pipeline_result.records)

    def test_hash_intel_matches_record(self, index, pipeline_result):
        for record in pipeline_result.records[:50]:
            intel = index.hash_intel(record.sha256)
            assert intel is not None
            assert intel["is_miner"] == record.is_miner
            assert intel["pool"] == record.pool
            assert intel["wallets"] == sorted(record.identifiers)
            assert intel["packer"] == record.packer
            verdict = pipeline_result.verdicts[record.sha256]
            assert intel["malware"] == verdict.is_malware

    def test_hash_lookup_is_case_insensitive(self, index,
                                             pipeline_result):
        sha = pipeline_result.records[0].sha256
        assert index.hash_intel(sha.upper()) == index.hash_intel(sha)

    def test_campaign_attribution_matches_aggregation(
            self, index, pipeline_result):
        member_of = {}
        for campaign in pipeline_result.campaigns:
            for sha in campaign.sample_hashes:
                member_of[sha] = campaign.campaign_id
        for record in pipeline_result.records[:200]:
            intel = index.hash_intel(record.sha256)
            assert intel["campaign_id"] == member_of.get(record.sha256)

    def test_unknown_hash_is_none(self, index):
        assert index.hash_intel("f" * 64) is None


class TestWalletTable:
    def test_profiled_wallet_matches_profile(self, index,
                                             pipeline_result):
        checked = 0
        for identifier, profile in pipeline_result.profiles.items():
            intel = index.wallet_intel(identifier)
            if intel is None:
                continue  # profile exists but no sample embeds it
            assert intel["profiled"] is True
            assert intel["total_xmr"] == round(profile.total_paid, 6)
            assert intel["total_usd"] == round(profile.total_usd, 2)
            assert intel["num_payments"] == profile.num_payments
            assert intel["pools"] == sorted(set(profile.pools))
            assert intel["active"] == profile.active
            checked += 1
        assert checked > 0

    def test_sample_count_matches_records(self, index, pipeline_result):
        wallet = next(i for r in pipeline_result.records
                      for i in r.identifiers)
        expected = sum(1 for r in pipeline_result.records
                       if wallet in r.identifiers)
        assert index.wallet_intel(wallet)["samples"] == expected


class TestCampaignTable:
    def test_summary_equals_release_index(self, index, pipeline_result):
        for campaign in pipeline_result.campaigns:
            assert (index.campaign_intel(campaign.campaign_id)
                    == campaign_summary(campaign))

    def test_ids_start_at_one(self, index, pipeline_result):
        assert index.campaign_intel(0) is None
        assert index.campaign_intel(1) is not None
        assert (index.counts()["campaigns"]
                == len(pipeline_result.campaigns))


class TestLookupAndScan:
    def test_lookup_dispatches_by_kind(self, index, pipeline_result):
        sha = pipeline_result.records[0].sha256
        assert index.lookup(sha)["kind"] == "hash"
        wallet = next(i for r in pipeline_result.records
                      for i in r.identifiers)
        assert index.lookup(wallet)["kind"] == "wallet"
        assert index.lookup("no-such-indicator-anywhere") is None

    def test_scan_finds_every_submitted_known_ioc(self, index):
        examples = index.examples(limit=6)
        known = (examples["hashes"] + examples["wallets"]
                 + examples["domains"])
        blob = "\n".join(known + ["junk-ioc-1", "also.not.known"])
        hits = {h["indicator"] for h in index.scan_text(blob)}
        assert set(known) <= hits

    def test_scan_hits_resolve_to_point_lookups(self, index):
        examples = index.examples(limit=4)
        blob = "\n".join(examples["hashes"] + examples["domains"])
        for hit in index.scan_text(blob):
            match = index.lookup(hit["indicator"])
            assert match is not None
            assert match["kind"] == hit["kind"]

    def test_scan_of_garbage_is_empty(self, index):
        assert index.scan_text("nothing known in here at all") == []


class TestDerivedResultEquivalence:
    """Index built from a bare record stream (the --store path)."""

    def test_matches_batch_index_tables(self, index, small_world,
                                        pipeline_result):
        derived = derive_result_from_records(small_world,
                                             pipeline_result.records)
        other = build_index(derived, generation=1, source="derived")
        assert other.counts() == index.counts()
        assert other._campaigns == index._campaigns
        assert other._wallets == index._wallets
        assert other._domains == index._domains
        # hash payloads agree except the verdict-backed field, which a
        # bare record stream cannot reconstruct.
        for sha, intel in index._hashes.items():
            expected = dict(intel, malware=None)
            assert other._hashes[sha] == expected


class TestStoreResultEquivalence:
    """Index built streaming from a columnar store, never holding the
    record list — the multi-process-serve / million-sample path."""

    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory, pipeline_result):
        store = RecordStore(tmp_path_factory.mktemp("segments"))
        records = pipeline_result.records
        half = len(records) // 2
        store.append_segment(records[:half], "seg-0000")
        store.append_segment(records[half:], "seg-0001")
        return store

    def test_matches_derived_index_tables(self, index, small_world,
                                          pipeline_result, store):
        result = result_from_store(small_world, store)
        other = build_index(result, generation=1, source="store")
        assert other.counts() == index.counts()
        assert other._campaigns == index._campaigns
        assert other._wallets == index._wallets
        assert other._domains == index._domains
        for sha, intel in index._hashes.items():
            assert other._hashes[sha] == dict(intel, malware=None)

    def test_campaigns_carry_no_records(self, small_world, store):
        result = result_from_store(small_world, store)
        assert result.campaigns
        assert all(c.records == [] for c in result.campaigns)
        # ...yet enrichment ran (it needs records while they exist)
        assert any(c.first_seen is not None for c in result.campaigns)
        assert any(c.packers for c in result.campaigns)
