"""Community-level influence propagation.

This module implements the community-to-user propagation probability
``cpp(g, v)`` (Eq. 4), the influenced community ``g_inf`` (Definition 3), and
the influential score ``sigma(g)`` (Eq. 5) — i.e. the
``calculate_influence(g, theta)`` routine of Section VI-B.

``cpp(g, v)`` is ``max_{u in V(g)} upp(u, v)`` for vertices outside ``g`` and
1 for members of ``g``.  Computationally this is a *multi-source* max-product
Dijkstra seeded with every community vertex at probability 1.  The expansion
is truncated at the influence threshold ``theta``: once the best achievable
probability for a frontier vertex falls below ``theta`` it can never rise
again (edge probabilities are <= 1), so the truncation is exact — matching
the paper's boundary-expansion description where a new vertex ``v_new`` is
added while ``cpp(g, v_new) = max_{u in g_inf} cpp(g, u) * p_{u, v_new} >= theta``.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable
from dataclasses import dataclass

from repro.exceptions import GraphError, VertexNotFoundError
from repro.graph.social_network import SocialNetwork, VertexId


@dataclass(frozen=True)
class InfluencedCommunity:
    """The influenced community ``g_inf`` of a seed community.

    Attributes
    ----------
    seed_vertices:
        The vertices of the seed community ``g``.
    cpp:
        Mapping ``vertex -> cpp(g, vertex)`` for every vertex of ``g_inf``
        (i.e. every vertex with ``cpp >= theta``, including the seed vertices
        at probability 1).
    threshold:
        The influence threshold ``theta`` the community was computed for.
    """

    seed_vertices: frozenset
    cpp: dict
    threshold: float

    @property
    def vertices(self) -> frozenset:
        """All vertices of ``g_inf`` (seed members included)."""
        return frozenset(self.cpp)

    @property
    def influenced_only(self) -> frozenset:
        """Vertices influenced by ``g`` but not members of it."""
        return frozenset(self.cpp) - self.seed_vertices

    @property
    def score(self) -> float:
        """The influential score ``sigma(g)`` (Eq. 5)."""
        return sum(self.cpp.values())

    def __len__(self) -> int:
        return len(self.cpp)

    def cpp_of(self, vertex: VertexId) -> float:
        """Return ``cpp(g, vertex)``; 0 when the vertex is outside ``g_inf``."""
        return self.cpp.get(vertex, 0.0)


def community_propagation(
    graph: SocialNetwork,
    seed_vertices: Iterable[VertexId],
    threshold: float,
) -> InfluencedCommunity:
    """Compute the influenced community of ``seed_vertices`` at ``threshold``.

    This is the library's ``calculate_influence(g, theta)``: a multi-source
    max-product Dijkstra from the seed community, truncated at ``theta``.

    Parameters
    ----------
    graph:
        The full social network ``G``.
    seed_vertices:
        The vertices of the seed community ``g`` (must be non-empty and all
        present in ``graph``).
    threshold:
        Influence threshold ``theta`` in ``[0, 1)``; vertices with
        ``cpp < theta`` are excluded from ``g_inf``.

    Returns
    -------
    InfluencedCommunity
    """
    seeds = frozenset(seed_vertices)
    if not seeds:
        raise GraphError("seed community must contain at least one vertex")
    for vertex in seeds:
        if not graph.has_vertex(vertex):
            raise VertexNotFoundError(vertex)
    if not 0.0 <= threshold < 1.0:
        raise GraphError(f"influence threshold must be in [0, 1), got {threshold}")

    adjacency = graph.adjacency()
    cpp: dict[VertexId, float] = {}
    heap: list[tuple[float, int, VertexId]] = []
    counter = 0
    for seed in seeds:
        heap.append((-1.0, counter, seed))
        counter += 1
    heapq.heapify(heap)

    while heap:
        negative_probability, _, vertex = heapq.heappop(heap)
        probability = -negative_probability
        if vertex in cpp:
            continue
        cpp[vertex] = probability
        for neighbour in adjacency[vertex]:
            if neighbour in cpp:
                continue
            next_probability = probability * graph.probability(vertex, neighbour)
            if next_probability <= 0.0:
                continue
            # Exact truncation: probabilities only shrink along a path, so a
            # frontier value below theta can never re-enter g_inf.
            if next_probability < threshold:
                continue
            heapq.heappush(heap, (-next_probability, counter, neighbour))
            counter += 1

    # With threshold == 0 the Dijkstra above visits everything reachable;
    # otherwise every retained vertex satisfies cpp >= threshold by
    # construction (seeds have cpp == 1 > threshold since threshold < 1).
    if threshold > 0.0:
        cpp = {v: p for v, p in cpp.items() if p >= threshold}
    return InfluencedCommunity(seed_vertices=seeds, cpp=cpp, threshold=threshold)


def influential_score(
    graph: SocialNetwork,
    seed_vertices: Iterable[VertexId],
    threshold: float,
) -> float:
    """Return ``sigma(g)`` (Eq. 5) for the given seed community and threshold."""
    return community_propagation(graph, seed_vertices, threshold).score
