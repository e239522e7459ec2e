"""Tests for the Fig. 6 campaign-graph exports.

Besides the shape checks, every serialisation is compared with the
networkx oracle in ``tests/reference_graphs.py``: on every campaign of
one measured world, and on drawn campaigns whose hash prefixes collide,
whose edges repeat and whose parents are missing from the graph.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.graphs import (
    NODE_COLORS,
    CampaignGraph,
    campaign_graph,
    structure_metrics,
    to_dot,
    to_edge_list,
)
from repro.core.aggregation import Campaign
from repro.core.pipeline import MeasurementPipeline
from repro.core.records import MinerRecord
from repro.core.unionfind import UnionFind
from repro.corpus.generator import generate_world
from repro.corpus.model import ScenarioConfig
from tests import reference_graphs as ref


@pytest.fixture(scope="module")
def freebuf_campaign(small_world, pipeline_result):
    truth = next(c for c in small_world.ground_truth
                 if c.label == "Freebuf")
    return pipeline_result.campaign_for_wallet(truth.identifiers[0])


@pytest.fixture(scope="module")
def freebuf_graph(freebuf_campaign):
    return campaign_graph(freebuf_campaign)


def assert_matches_oracle(campaign: Campaign) -> None:
    graph = campaign_graph(campaign)
    oracle = ref.campaign_graph(campaign)
    title = f"campaign {campaign.campaign_id}"
    assert to_dot(graph, title) == ref.to_dot(oracle, title)
    assert to_edge_list(graph) == ref.to_edge_list(oracle)
    assert structure_metrics(graph) == ref.structure_metrics(oracle)


class TestCampaignGraph:
    def test_node_types_present(self, freebuf_graph):
        types = set(freebuf_graph.node_types.values())
        assert {"miner", "wallet", "domain"} <= types

    def test_wallet_count_matches(self, freebuf_campaign, freebuf_graph):
        wallets = [n for n, t in freebuf_graph.node_types.items()
                   if t == "wallet"]
        assert len(wallets) == freebuf_campaign.num_wallets

    def test_aliases_as_domain_nodes(self, freebuf_graph):
        domains = {n for n, t in freebuf_graph.node_types.items()
                   if t == "domain"}
        assert "d:xt.freebuf.info" in domains

    def test_graph_connected_through_features(self, freebuf_graph):
        """The Fig. 6a observation: the campaign holds together through
        identifier + ancestor + CNAME paths."""
        # isolated operation marker nodes aside, the core is connected
        core: UnionFind[str] = UnionFind()
        for node, node_type in freebuf_graph.node_types.items():
            if node_type != "operation":
                core.ensure(node)
        for a, b, _feature in freebuf_graph.edges():
            core.union(a, b)  # no edge touches an operation node
        giant = max(len(component) for component in core.components())
        assert giant / len(core) > 0.9

    def test_edge_features_labelled(self, freebuf_graph):
        features = {feature for _, _, feature in freebuf_graph.edges()}
        assert "same_identifier" in features
        assert "cname" in features


class TestSerialisation:
    def test_dot_output(self, freebuf_graph):
        dot = to_dot(freebuf_graph, title="freebuf")
        assert dot.startswith('graph "freebuf"')
        assert dot.rstrip().endswith("}")
        assert NODE_COLORS["wallet"] in dot
        assert '"d:xt.freebuf.info"' in dot

    def test_edge_list_sorted_and_stable(self, freebuf_graph):
        edges = to_edge_list(freebuf_graph)
        assert edges == sorted(edges)
        assert to_edge_list(freebuf_graph) == edges

    def test_metrics(self, freebuf_graph):
        metrics = structure_metrics(freebuf_graph)
        assert metrics["nodes"] > 0
        assert metrics["n_wallet"] == 7
        assert metrics["edges"] >= metrics["nodes"] - metrics["components"]

    def test_empty_graph_metrics(self):
        metrics = structure_metrics(CampaignGraph())
        assert metrics["nodes"] == 0
        assert metrics["components"] == 0


class TestNetworkxOracle:
    def test_every_campaign_of_a_world(self):
        world = generate_world(ScenarioConfig(seed=2019, scale=0.004))
        result = MeasurementPipeline(world).run()
        assert len(result.campaigns) > 10
        for campaign in result.campaigns:
            assert_matches_oracle(campaign)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_drawn_campaigns(self, data):
        # few distinct 10-character prefixes, so sample and wallet
        # nodes collide; parents may name samples outside the campaign
        shas = st.builds("".join, st.tuples(
            st.sampled_from(["aaaaaaaaaa", "aaaaaaaaab", "bbbbbbbbbb"]),
            st.sampled_from(["0", "1", "2"])))
        wallets = st.sampled_from(
            ["4WALLET000x", "4WALLET000y", "4WALLET111x", "1BTCWALLET"])
        ips = st.sampled_from(["10.0.0.1", "10.0.0.2", "10.0.0.3"])
        aliases = st.sampled_from(["a.example", "b.example"])
        records = data.draw(st.lists(st.builds(
            MinerRecord,
            sha256=shas,
            type=st.sampled_from(["Miner", "Ancillary"]),
            identifiers=st.lists(wallets, max_size=3),
            parents=st.lists(shas, max_size=3),
            cname_aliases=st.lists(aliases, max_size=2),
            itw_urls=st.lists(ips.map(lambda ip: f"http://{ip}/x.exe"),
                              max_size=2),
            dst_ip=st.one_of(st.none(), ips),
        ), max_size=8))
        campaign = Campaign(
            campaign_id=1,
            identifiers=data.draw(st.lists(wallets, unique=True)),
            hosting_ips=data.draw(st.lists(ips, unique=True)),
            proxies=data.draw(st.lists(ips, unique=True)),
            operations=data.draw(st.lists(
                st.sampled_from(["op-a", "op-b"]), unique=True)),
            records=records)
        assert_matches_oracle(campaign)
