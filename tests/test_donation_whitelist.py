"""Donation-wallet whitelist regression: the taint rule's runtime twin.

The paper excludes developer donation wallets before identifier edges
are drawn — samples that merely ship the same donation address (miners
commonly embed the default donation wallet of the stock tool they
wrap) must not collapse into one campaign.  These tests pin that both
the aggregator fed record by record and the independent graph-cut
reference (``tests/reference_aggregation.py``) consult the whitelist on
their identifier-edge paths, and that the exclusion is exactly as wide
as the whitelist.
"""

from repro.core.aggregation import CampaignAggregator, GroupingPolicy
from repro.core.records import MinerRecord
from repro.osint.feeds import OsintFeeds
from tests.reference_aggregation import ReferenceAggregator

DONATION = "4DONATEdevfundwalletxxxxxxxxxxxxxxxxxxxxx"


def _feeds():
    feeds = OsintFeeds()
    feeds.whitelist_donation_wallet(DONATION)
    return feeds


def _records(shared_wallet):
    """Two otherwise-unrelated miners sharing one wallet string."""
    one = MinerRecord(sha256="aa01", identifiers=["W-one", shared_wallet],
                      identifier_coins=["XMR", "XMR"])
    two = MinerRecord(sha256="bb02", identifiers=["W-two", shared_wallet],
                      identifier_coins=["XMR", "XMR"])
    return [one, two]


def _batch_campaigns(records, feeds):
    return ReferenceAggregator(feeds, GroupingPolicy.full()).aggregate(
        records)


def _incremental_campaigns(records, feeds):
    aggregator = CampaignAggregator(feeds, GroupingPolicy.full())
    for record in records:
        aggregator.add_record(record)
    return aggregator.campaigns()


class TestDonationWhitelist:
    def test_batch_does_not_group_on_donation_wallet(self):
        campaigns = _batch_campaigns(_records(DONATION), _feeds())
        assert len(campaigns) == 2

    def test_incremental_does_not_group_on_donation_wallet(self):
        campaigns = _incremental_campaigns(_records(DONATION), _feeds())
        assert len(campaigns) == 2

    def test_control_a_real_shared_wallet_still_groups(self):
        # same shape, wallet not whitelisted: one campaign on both paths
        feeds = _feeds()
        assert len(_batch_campaigns(_records("W-shared"), feeds)) == 1
        assert len(_incremental_campaigns(_records("W-shared"),
                                          _feeds())) == 1

    def test_donation_wallet_never_appears_as_an_identifier(self):
        feeds = _feeds()
        for campaigns in (_batch_campaigns(_records(DONATION), feeds),
                          _incremental_campaigns(_records(DONATION),
                                                 _feeds())):
            for campaign in campaigns:
                assert DONATION not in campaign.identifiers

    def test_batch_and_incremental_agree_on_the_partition(self):
        batch = _batch_campaigns(_records(DONATION), _feeds())
        incremental = _incremental_campaigns(_records(DONATION),
                                             _feeds())
        assert [c.sample_hashes for c in batch] == \
            [c.sample_hashes for c in incremental]

    def test_exclusion_can_be_disabled_for_ablation(self):
        policy = GroupingPolicy(exclude_donation_wallets=False)
        campaigns = CampaignAggregator(_feeds(), policy).aggregate(
            _records(DONATION))
        assert len(campaigns) == 1  # the ablation baseline regroups
