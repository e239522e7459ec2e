"""Enrichment never groups: the runtime form of the §III-E boundary.

The paper groups campaigns on hard evidence only (shared identifiers,
infrastructure, proxy IPs); packer, entropy and obfuscation findings
are informative annotations.  reprolint's TAINT001/TAINT002 keep the
grouping modules from importing enrichment code or reading
enrichment-owned attributes.  These tests check the outcome on real
records: scrambling every enrichment-owned field of the batch records
of a small world leaves the campaign partition exactly as it was,
under the one-shot aggregator and the sharded one, and the pipeline's
enriched campaigns are exactly the un-enriched aggregation's.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import CampaignAggregator
from repro.core.pipeline import MeasurementPipeline
from repro.core.records import MinerRecord
from repro.corpus.generator import generate_world
from repro.corpus.model import ScenarioConfig
from repro.lint.contracts import TAINTED_ATTRIBUTES
from repro.scale.shards import ShardedCampaignAggregator

#: the enrichment-owned fields a record carries, scrambled below.
ENRICHMENT_FIELDS = ("packer", "entropy", "obfuscated")

_PACKERS = (None, "UPX", "MPRESS", "ASPack", "Themida", "VMProtect")


@pytest.fixture(scope="module")
def measured():
    world = generate_world(ScenarioConfig(seed=2019, scale=0.004))
    return world, MeasurementPipeline(world).run()


def partition(campaigns):
    """Each campaign's sorted sample hashes, in sorted order."""
    return sorted(tuple(sorted(c.sample_hashes)) for c in campaigns)


def aggregate(world, result, records):
    return CampaignAggregator(
        world.osint, proxy_ips=result.proxy_ips).aggregate(records)


def scramble(records, seed):
    rnd = random.Random(seed)
    return [dataclasses.replace(
        record,
        packer=rnd.choice(_PACKERS),
        entropy=rnd.uniform(0.0, 8.0),
        obfuscated=rnd.random() < 0.5) for record in records]


def test_every_enrichment_owned_record_field_is_scrambled():
    record_fields = {f.name for f in dataclasses.fields(MinerRecord)}
    assert set(ENRICHMENT_FIELDS) == TAINTED_ATTRIBUTES & record_fields


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_scrambled_enrichment_leaves_the_partition(measured, seed):
    world, result = measured
    expected = partition(aggregate(world, result, result.records))
    scrambled = scramble(result.records, seed)
    assert partition(aggregate(world, result, scrambled)) == expected
    sharded = ShardedCampaignAggregator(
        world.osint, proxy_ips=result.proxy_ips,
        num_shards=8).aggregate(scrambled)
    assert partition(sharded) == expected


def test_enriched_campaigns_keep_the_unenriched_partition(measured):
    world, result = measured
    assert len(result.records) > 100 and len(result.campaigns) > 10
    assert partition(result.campaigns) == \
        partition(aggregate(world, result, result.records))
