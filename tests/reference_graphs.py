"""Independent oracle for the Fig. 6 campaign graphs, built with networkx.

Production (:mod:`repro.analysis.graphs`) keeps its own small graph
with a union-find for the component count.  This module keeps the
original ``nx.Graph`` implementation the graph tests compare it
against: the same nodes, edges and serialisations, with node and edge
order, retyping, relabelling and component counting left to networkx.
"""

from typing import Dict, List, Tuple

import networkx as nx

from repro.analysis.graphs import NODE_COLORS
from repro.core.aggregation import Campaign


def campaign_graph(campaign: Campaign) -> nx.Graph:
    """Typed graph of one campaign (samples, wallets, infrastructure)."""
    graph = nx.Graph()
    campaign_ids = set(campaign.identifiers)
    for record in campaign.records:
        kind = "miner" if record.is_miner else "ancillary"
        sample_node = f"s:{record.sha256[:10]}"
        graph.add_node(sample_node, node_type=kind)
        for identifier in record.identifiers:
            if identifier not in campaign_ids:
                continue
            wallet_node = f"w:{identifier[:10]}"
            graph.add_node(wallet_node, node_type="wallet")
            graph.add_edge(sample_node, wallet_node,
                           feature="same_identifier")
        for parent in record.parents:
            parent_node = f"s:{parent[:10]}"
            if parent_node in graph:
                graph.add_edge(sample_node, parent_node,
                               feature="ancestor")
        for alias in record.cname_aliases:
            alias_node = f"d:{alias}"
            graph.add_node(alias_node, node_type="domain")
            graph.add_edge(sample_node, alias_node, feature="cname")
    for ip in campaign.hosting_ips:
        host_node = f"h:{ip}"
        graph.add_node(host_node, node_type="host")
        for record in campaign.records:
            if any(ip in url for url in record.itw_urls):
                graph.add_edge(f"s:{record.sha256[:10]}", host_node,
                               feature="hosting")
    for proxy in campaign.proxies:
        proxy_node = f"p:{proxy}"
        graph.add_node(proxy_node, node_type="proxy")
        for record in campaign.records:
            if record.dst_ip == proxy:
                graph.add_edge(f"s:{record.sha256[:10]}", proxy_node,
                               feature="proxy")
    for operation in campaign.operations:
        graph.add_node(f"o:{operation}", node_type="operation")
    return graph


def to_dot(graph: nx.Graph, title: str = "campaign") -> str:
    """Graphviz DOT with the Fig. 6 colour scheme."""
    lines = [f'graph "{title}" {{',
             "  overlap=false;",
             "  node [style=filled, fontsize=9];"]
    for node, attrs in graph.nodes(data=True):
        color = NODE_COLORS.get(attrs.get("node_type", ""), "#ffffff")
        lines.append(f'  "{node}" [fillcolor="{color}"];')
    for a, b, attrs in graph.edges(data=True):
        label = attrs.get("feature", "")
        lines.append(f'  "{a}" -- "{b}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)


def to_edge_list(graph: nx.Graph) -> List[Tuple[str, str, str]]:
    """(node_a, node_b, feature) triples, sorted."""
    return sorted(
        (a, b, attrs.get("feature", ""))
        for a, b, attrs in graph.edges(data=True)
    )


def structure_metrics(graph: nx.Graph) -> Dict[str, float]:
    """Node, edge and component counts, and nodes per type."""
    by_type: Dict[str, int] = {}
    for _, attrs in graph.nodes(data=True):
        node_type = attrs.get("node_type", "?")
        by_type[node_type] = by_type.get(node_type, 0) + 1
    return {
        "nodes": graph.number_of_nodes(),
        "edges": graph.number_of_edges(),
        "components": nx.number_connected_components(graph)
        if graph.number_of_nodes() else 0,
        **{f"n_{k}": v for k, v in sorted(by_type.items())},
    }
