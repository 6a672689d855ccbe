"""Maximum Influence Arborescence (MIA) propagation primitives.

Section II-B adopts the MIA model of Chen et al.:

* The propagation probability of a path ``P_{u,v} = <u = u_1, ..., u_m = v>``
  is the product of its edge probabilities (Eq. 1).
* The *maximum influence path* ``MIP_{u,v}`` is the path maximising that
  product (Eq. 2), and the user-to-user propagation probability ``upp(u, v)``
  is its probability (Eq. 3).

Finding the maximum-product path is a shortest-path problem: maximising
``prod p_i`` equals minimising ``sum -log p_i``.  We run Dijkstra directly in
probability space (max-heap on probabilities) to avoid the log transform and
its numerical edge cases at ``p = 0``.
"""

from __future__ import annotations

import heapq
from typing import Optional

from repro.exceptions import GraphError, VertexNotFoundError
from repro.graph.social_network import SocialNetwork, VertexId


def maximum_influence_paths(
    graph: SocialNetwork,
    source: VertexId,
    threshold: float = 0.0,
    allowed: Optional[frozenset] = None,
) -> dict[VertexId, float]:
    """Return ``upp(source, v)`` for every vertex reachable above ``threshold``.

    Runs a max-product Dijkstra from ``source``.  Vertices whose best path
    probability falls below ``threshold`` are not expanded (the MIA model
    truncates arborescences at a minimum influence, which is also what keeps
    the computation local); they are omitted from the result.

    Parameters
    ----------
    graph:
        The social network.
    source:
        Origin of the propagation.
    threshold:
        Minimum propagation probability to keep exploring (``0`` explores the
        whole reachable graph).
    allowed:
        Optional vertex subset the propagation may travel through.

    Returns
    -------
    dict
        Mapping ``vertex -> upp(source, vertex)``; contains ``source -> 1.0``.
    """
    if not graph.has_vertex(source):
        raise VertexNotFoundError(source)
    if not 0.0 <= threshold <= 1.0:
        raise GraphError(f"threshold must be in [0, 1], got {threshold}")
    if allowed is not None and source not in allowed:
        raise GraphError(f"source {source!r} is not in the allowed vertex set")

    best: dict[VertexId, float] = {}
    # Max-heap via negated probabilities.
    heap: list[tuple[float, int, VertexId]] = [(-1.0, 0, source)]
    counter = 1
    adjacency = graph.adjacency()
    while heap:
        negative_probability, _, vertex = heapq.heappop(heap)
        probability = -negative_probability
        if vertex in best:
            continue
        best[vertex] = probability
        for neighbour in adjacency[vertex]:
            if neighbour in best:
                continue
            if allowed is not None and neighbour not in allowed:
                continue
            next_probability = probability * graph.probability(vertex, neighbour)
            if next_probability < threshold or next_probability <= 0.0:
                continue
            heapq.heappush(heap, (-next_probability, counter, neighbour))
            counter += 1
    return best


def user_to_user_propagation(
    graph: SocialNetwork, source: VertexId, target: VertexId
) -> float:
    """Return ``upp(source, target)`` (Eq. 3); ``0`` when no path exists."""
    if not graph.has_vertex(target):
        raise VertexNotFoundError(target)
    if source == target:
        return 1.0
    probabilities = maximum_influence_paths(graph, source)
    return probabilities.get(target, 0.0)
