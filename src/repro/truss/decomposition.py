"""Truss decomposition: the trussness of every edge and vertex.

The *trussness* of an edge is the largest ``k`` such that the edge belongs to
the maximal k-truss; the trussness of a vertex is the maximum trussness over
its incident edges.  The ATindex baseline (Section VIII-A) pre-computes and
indexes exactly these numbers, then filters query vertices whose trussness is
below the requested ``k``.

The decomposition below is the standard bottom-up peeling: process edges in
increasing support order, fixing the trussness of an edge at the moment it
would be peeled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.graph.social_network import SocialNetwork, VertexId
from repro.graph.subgraph import SubgraphView
from repro.truss.support import edge_key

GraphLike = Union[SocialNetwork, SubgraphView]


@dataclass(frozen=True)
class TrussDecomposition:
    """Trussness of every edge and vertex of a graph."""

    edge_trussness: dict
    vertex_trussness: dict

    def trussness_of_edge(self, u: VertexId, v: VertexId) -> int:
        """Return the trussness of edge ``{u, v}`` (2 when absent)."""
        return self.edge_trussness.get(edge_key(u, v), 2)

    def trussness_of_vertex(self, vertex: VertexId) -> int:
        """Return the trussness of ``vertex`` (2 when isolated or absent)."""
        return self.vertex_trussness.get(vertex, 2)

    def max_trussness(self) -> int:
        """Return the maximum edge trussness (2 for edgeless graphs)."""
        return max(self.edge_trussness.values(), default=2)

    def vertices_with_trussness_at_least(self, k: int) -> frozenset:
        """Return the vertices whose trussness is at least ``k``."""
        return frozenset(v for v, t in self.vertex_trussness.items() if t >= k)


def _adjacency_of(graph: GraphLike) -> dict[VertexId, set]:
    if isinstance(graph, SubgraphView):
        return {v: set(graph.neighbors(v)) for v in graph}
    return {v: graph.neighbor_set(v) for v in graph.vertices()}


def truss_decomposition(graph: GraphLike) -> TrussDecomposition:
    """Compute the full truss decomposition of ``graph``.

    Runs the standard peeling algorithm: repeatedly pick the edge with the
    lowest remaining support ``s``; its trussness is ``s + 2`` (monotonically
    clamped so trussness never decreases along the peeling order); remove it
    and decrement the supports of the edges it shared triangles with.
    (:func:`repro.fastgraph.kernels.truss_decomposition_csr` is the same peel
    over a frozen snapshot.)
    """
    adjacency = _adjacency_of(graph)
    supports: dict[frozenset, int] = {}
    for u, neighbors in adjacency.items():
        for v in neighbors:
            key = edge_key(u, v)
            if key not in supports:
                supports[key] = len(adjacency[u] & adjacency[v])

    # Bucket queue over support values keeps the peeling near-linear.
    max_support = max(supports.values(), default=0)
    buckets: list[set[frozenset]] = [set() for _ in range(max_support + 1)]
    for key, support in supports.items():
        buckets[support].add(key)

    edge_trussness: dict[frozenset, int] = {}
    current = dict(supports)
    removed: set[frozenset] = set()
    k_floor = 2
    pointer = 0
    remaining = len(supports)
    while remaining:
        # Find the lowest non-empty bucket at or after `pointer`.
        while pointer <= max_support and not buckets[pointer]:
            pointer += 1
        if pointer > max_support:
            break
        key = buckets[pointer].pop()
        if key in removed:
            continue
        support = current[key]
        k_floor = max(k_floor, support + 2)
        edge_trussness[key] = k_floor
        removed.add(key)
        remaining -= 1

        u, v = tuple(key)
        common = adjacency[u] & adjacency[v]
        adjacency[u].discard(v)
        adjacency[v].discard(u)
        for w in common:
            for a, b in ((u, w), (v, w)):
                other = edge_key(a, b)
                if other in removed or other not in current:
                    continue
                old = current[other]
                if old > support:
                    buckets[old].discard(other)
                    current[other] = old - 1
                    buckets[old - 1].add(other)
                    if old - 1 < pointer:
                        pointer = old - 1

    vertex_trussness: dict[VertexId, int] = {}
    for key, trussness in edge_trussness.items():
        for vertex in key:
            vertex_trussness[vertex] = max(vertex_trussness.get(vertex, 2), trussness)
    # Isolated vertices (no incident edges) get the minimum trussness of 2.
    for vertex in _vertices_of(graph):
        vertex_trussness.setdefault(vertex, 2)
    return TrussDecomposition(edge_trussness=edge_trussness, vertex_trussness=vertex_trussness)


def _vertices_of(graph: GraphLike):
    if isinstance(graph, SubgraphView):
        return iter(graph)
    return graph.vertices()
