"""Disjoint-set forest behind campaign aggregation.

:class:`repro.core.aggregation.CampaignAggregator` tracks grouping
components with it, and the sharded front-end
(:mod:`repro.scale.shards`) glues cross-shard components with a second
one.  The parent dict doubles as node insertion order, which
:meth:`components` preserves.
"""

from typing import Dict, Generic, Iterator, List, TypeVar

N = TypeVar("N")

__all__ = ["UnionFind"]


class UnionFind(Generic[N]):
    """Union-find with path compression and union by rank.

    ``merges`` counts distinct-root unions, i.e. how many times two
    components actually fused; redundant unions are free and uncounted.
    """

    __slots__ = ("_parent", "_rank", "merges")

    def __init__(self) -> None:
        self._parent: Dict[N, N] = {}
        self._rank: Dict[N, int] = {}
        self.merges = 0

    def __len__(self) -> int:
        return len(self._parent)

    def __contains__(self, node: N) -> bool:
        return node in self._parent

    def ensure(self, node: N) -> None:
        """Insert ``node`` as a singleton component if unseen."""
        if node not in self._parent:
            self._parent[node] = node
            self._rank[node] = 0

    def find(self, node: N) -> N:
        """Root of ``node``'s component (compresses the walked path)."""
        parent = self._parent
        root = node
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:  # path compression
            parent[node], node = root, parent[node]
        return root

    def union(self, a: N, b: N) -> bool:
        """Union the components of ``a`` and ``b``; True if they fused."""
        self.ensure(a)
        self.ensure(b)
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        if self._rank[ra] == self._rank[rb]:
            self._rank[ra] += 1
        self.merges += 1
        return True

    def nodes(self) -> Iterator[N]:
        """Every node, in insertion order."""
        return iter(self._parent)

    def num_components(self) -> int:
        """Current number of disjoint components."""
        return sum(1 for node in self._parent if self.find(node) == node)

    def components(self) -> List[List[N]]:
        """Components as node lists, ordered by first-node insertion."""
        grouped: Dict[N, List[N]] = {}
        for node in self._parent:
            grouped.setdefault(self.find(node), []).append(node)
        return list(grouped.values())
