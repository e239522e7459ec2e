"""Tests for the world-consistency validator."""

import datetime

import pytest

from repro.corpus.model import GroundTruthCampaign
from tests.world_validation import validate_world


class TestValidator:
    def test_generated_world_is_valid(self, small_world):
        report = validate_world(small_world)
        assert report.ok, report.issues
        assert report.checks_run >= 7

    def test_detects_inverted_window(self, small_world):
        bad = GroundTruthCampaign(
            campaign_id=999999, actor_id=999999,
            identifier_kind="wallet", coin="XMR",
            start=datetime.date(2018, 6, 1),
            end=datetime.date(2018, 1, 1))
        small_world.ground_truth.append(bad)
        try:
            report = validate_world(small_world)
            assert not report.ok
            assert any("ends before" in issue for issue in report.issues)
        finally:
            small_world.ground_truth.remove(bad)

    def test_detects_pre_monero_campaign(self, small_world):
        bad = GroundTruthCampaign(
            campaign_id=999998, actor_id=999998,
            identifier_kind="wallet", coin="XMR",
            start=datetime.date(2013, 1, 1),
            end=datetime.date(2015, 1, 1))
        small_world.ground_truth.append(bad)
        try:
            report = validate_world(small_world)
            assert any("predates" in issue for issue in report.issues)
        finally:
            small_world.ground_truth.remove(bad)

    def test_detects_donation_wallet_ownership(self, small_world):
        donation = sorted(small_world.stock_catalog.donation_wallets())[0]
        bad = GroundTruthCampaign(
            campaign_id=999997, actor_id=999997,
            identifier_kind="wallet", coin="XMR",
            identifiers=[donation])
        small_world.ground_truth.append(bad)
        try:
            report = validate_world(small_world)
            assert any("donation" in issue for issue in report.issues)
        finally:
            small_world.ground_truth.remove(bad)

    def test_detects_dangling_sample_reference(self, small_world):
        bad = GroundTruthCampaign(
            campaign_id=999996, actor_id=999996,
            identifier_kind="wallet", coin="XMR",
            sample_hashes=["not-a-real-hash"])
        small_world.ground_truth.append(bad)
        try:
            report = validate_world(small_world)
            assert any("missing sample" in issue
                       for issue in report.issues)
        finally:
            small_world.ground_truth.remove(bad)
