"""Campaign-graph exports (the Fig. 6 visualisations).

The paper renders each case-study campaign as a typed graph: wallets in
blue, miner samples in light green, contacted domains in gray, malware
hosts in pink, ancillaries in red/orange.  This module rebuilds that
graph for any recovered campaign and serialises it to Graphviz DOT (and
to a plain edge list), with the paper's colour scheme as defaults.
"""

from typing import Dict, Iterator, List, Tuple

from repro.core.aggregation import Campaign
from repro.core.unionfind import UnionFind

#: node type -> fill colour, matching the Fig. 6 legend.
NODE_COLORS: Dict[str, str] = {
    "wallet": "#4a90d9",       # blue
    "miner": "#a8d08d",        # light green
    "ancillary": "#e06666",    # red
    "domain": "#999999",       # gray
    "host": "#e8a2c8",         # pink
    "proxy": "#e8a2c8",
    "operation": "#f6b26b",    # orange
}


__all__ = [
    "CampaignGraph",
    "campaign_graph",
    "structure_metrics",
    "to_dot",
    "to_edge_list",
]


class CampaignGraph:
    """Undirected graph of typed nodes and feature-labelled edges.

    Nodes keep their insertion order and each node its neighbours'
    order, so serialisations are stable.  Re-adding a node retypes it
    and re-adding an edge relabels it, both in place.
    """

    def __init__(self) -> None:
        #: node -> its type, in insertion order
        self.node_types: Dict[str, str] = {}
        #: node -> neighbour -> the edge's feature
        self._adjacent: Dict[str, Dict[str, str]] = {}

    def add_node(self, node: str, node_type: str) -> None:
        """Add ``node`` (or retype it)."""
        self.node_types[node] = node_type
        self._adjacent.setdefault(node, {})

    def add_edge(self, a: str, b: str, feature: str) -> None:
        """Join two existing nodes (or relabel their edge)."""
        self._adjacent[a][b] = feature
        self._adjacent[b][a] = feature

    def edges(self) -> Iterator[Tuple[str, str, str]]:
        """``(a, b, feature)`` once per edge: ``a`` is the endpoint
        added first, and edges follow ``a``'s order, then the order
        ``a`` met its neighbours."""
        done = set()
        for node, neighbours in self._adjacent.items():
            for other, feature in neighbours.items():
                if other not in done:
                    yield node, other, feature
            done.add(node)

    def num_components(self) -> int:
        """Number of connected components, isolated nodes included."""
        forest: UnionFind[str] = UnionFind()
        for node in self.node_types:
            forest.ensure(node)
        for a, b, _feature in self.edges():
            forest.union(a, b)
        return forest.num_components()


def campaign_graph(campaign: Campaign) -> CampaignGraph:
    """Typed graph of one campaign (samples, wallets, infrastructure)."""
    graph = CampaignGraph()
    # campaign.identifiers already excludes white-listed donation
    # wallets; records may still mention them, so filter here too.
    campaign_ids = set(campaign.identifiers)
    for record in campaign.records:
        kind = "miner" if record.is_miner else "ancillary"
        sample_node = f"s:{record.sha256[:10]}"
        graph.add_node(sample_node, kind)
        for identifier in record.identifiers:
            if identifier not in campaign_ids:
                continue
            wallet_node = f"w:{identifier[:10]}"
            graph.add_node(wallet_node, "wallet")
            graph.add_edge(sample_node, wallet_node, "same_identifier")
        for parent in record.parents:
            parent_node = f"s:{parent[:10]}"
            if parent_node in graph.node_types:
                graph.add_edge(sample_node, parent_node, "ancestor")
        for alias in record.cname_aliases:
            alias_node = f"d:{alias}"
            graph.add_node(alias_node, "domain")
            graph.add_edge(sample_node, alias_node, "cname")
    for ip in campaign.hosting_ips:
        host_node = f"h:{ip}"
        graph.add_node(host_node, "host")
        for record in campaign.records:
            if any(ip in url for url in record.itw_urls):
                graph.add_edge(f"s:{record.sha256[:10]}", host_node,
                               "hosting")
    for proxy in campaign.proxies:
        proxy_node = f"p:{proxy}"
        graph.add_node(proxy_node, "proxy")
        for record in campaign.records:
            if record.dst_ip == proxy:
                graph.add_edge(f"s:{record.sha256[:10]}", proxy_node,
                               "proxy")
    for operation in campaign.operations:
        graph.add_node(f"o:{operation}", "operation")
    return graph


def to_dot(graph: CampaignGraph, title: str = "campaign") -> str:
    """Serialise to Graphviz DOT with the Fig. 6 colour scheme."""
    lines = [f'graph "{title}" {{',
             "  overlap=false;",
             "  node [style=filled, fontsize=9];"]
    for node, node_type in graph.node_types.items():
        color = NODE_COLORS.get(node_type, "#ffffff")
        lines.append(f'  "{node}" [fillcolor="{color}"];')
    for a, b, feature in graph.edges():
        lines.append(f'  "{a}" -- "{b}" [label="{feature}"];')
    lines.append("}")
    return "\n".join(lines)


def to_edge_list(graph: CampaignGraph) -> List[Tuple[str, str, str]]:
    """(node_a, node_b, feature) triples, sorted for stable output."""
    return sorted(graph.edges())


def structure_metrics(graph: CampaignGraph) -> Dict[str, float]:
    """Shape metrics for comparing recovered structure to Fig. 6."""
    by_type: Dict[str, int] = {}
    for node_type in graph.node_types.values():
        by_type[node_type] = by_type.get(node_type, 0) + 1
    return {
        "nodes": len(graph.node_types),
        "edges": sum(1 for _edge in graph.edges()),
        "components": graph.num_components(),
        **{f"n_{k}": v for k, v in sorted(by_type.items())},
    }
