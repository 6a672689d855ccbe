"""Edge support (triangle counting) utilities.

Definition 2 requires seed communities to be *k-trusses*: every edge must be
contained in at least ``k - 2`` triangles of the community.  The number of
triangles containing an edge is its *support* ``sup(e_{u,v})``.

The support pruning rule (Lemma 2) uses an upper bound of the support: since a
seed community is a subgraph of ``G`` (or of an r-hop subgraph), the support
of an edge measured in the larger graph bounds its support in any candidate
community from above.
"""

from __future__ import annotations

from typing import Union

from repro.graph.social_network import SocialNetwork, VertexId
from repro.graph.subgraph import SubgraphView

GraphLike = Union[SocialNetwork, SubgraphView]
Edge = tuple[VertexId, VertexId]


def edge_key(u: VertexId, v: VertexId) -> frozenset:
    """Return the canonical (orientation-free) key of an undirected edge."""
    return frozenset((u, v))


def _neighbor_sets(graph: GraphLike) -> dict[VertexId, set]:
    """Materialise neighbour sets once; triangle counting is intersection-heavy."""
    if isinstance(graph, SubgraphView):
        return {v: set(graph.neighbors(v)) for v in graph}
    return {v: graph.neighbor_set(v) for v in graph.vertices()}


def edge_support(graph: GraphLike) -> dict[frozenset, int]:
    """Return ``sup(e)`` for every edge of ``graph``.

    The support of an edge ``{u, v}`` is ``|N(u) ∩ N(v)|`` restricted to the
    given graph (or view).
    """
    neighbors = _neighbor_sets(graph)
    supports: dict[frozenset, int] = {}
    for u, v in graph.edges():
        supports[edge_key(u, v)] = len(neighbors[u] & neighbors[v])
    return supports


def max_support(graph: GraphLike) -> int:
    """Return the maximum edge support of ``graph`` (0 for edgeless graphs)."""
    supports = edge_support(graph)
    return max(supports.values(), default=0)
