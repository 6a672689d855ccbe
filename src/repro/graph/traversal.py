"""Graph traversal primitives: BFS hop distances and r-hop subgraph extraction.

The TopL-ICDE framework repeatedly needs the *r-hop subgraph* ``hop(v_i, r)``:
the subgraph induced by all vertices whose shortest-path (hop) distance from
``v_i`` is at most ``r`` (Section III / V-A of the paper).  The radius pruning
rule (Lemma 3) and the seed-community radius constraint (Definition 2) both
reduce to hop distances, so everything in this module is unweighted BFS.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.exceptions import GraphError, VertexNotFoundError
from repro.graph.social_network import SocialNetwork, VertexId
from repro.graph.subgraph import SubgraphView


def bfs_distances(
    graph: SocialNetwork,
    source: VertexId,
    max_depth: Optional[int] = None,
    allowed: Optional[frozenset] = None,
) -> dict[VertexId, int]:
    """Return hop distances from ``source`` to every reachable vertex.

    Parameters
    ----------
    graph:
        The social network to traverse.
    source:
        The start vertex.
    max_depth:
        When given, stop expanding once this depth has been reached; vertices
        farther than ``max_depth`` hops are absent from the result.
    allowed:
        When given, the traversal is restricted to this vertex subset
        (``source`` must be a member).

    Returns
    -------
    dict
        Mapping ``vertex -> hop distance``; always contains ``source -> 0``.
    """
    if not graph.has_vertex(source):
        raise VertexNotFoundError(source)
    if allowed is not None and source not in allowed:
        raise GraphError(f"source {source!r} is not in the allowed vertex set")
    if max_depth is not None and max_depth < 0:
        raise GraphError(f"max_depth must be non-negative, got {max_depth}")

    adjacency = graph.adjacency()
    distances: dict[VertexId, int] = {source: 0}
    queue: deque[VertexId] = deque([source])
    while queue:
        current = queue.popleft()
        depth = distances[current]
        if max_depth is not None and depth >= max_depth:
            continue
        for neighbour in adjacency[current]:
            if neighbour in distances:
                continue
            if allowed is not None and neighbour not in allowed:
                continue
            distances[neighbour] = depth + 1
            queue.append(neighbour)
    return distances


def hop_subgraph(graph: SocialNetwork, center: VertexId, radius: int) -> SubgraphView:
    """Return the r-hop subgraph ``hop(center, radius)`` as a view.

    The view contains every vertex within ``radius`` hops of ``center`` in the
    *full* graph, with ``center`` recorded as the view's centre.
    """
    if radius < 0:
        raise GraphError(f"radius must be non-negative, got {radius}")
    distances = bfs_distances(graph, center, max_depth=radius)
    return SubgraphView(graph, distances.keys(), center=center)


def hop_distances_within(
    view: SubgraphView, source: VertexId, max_depth: Optional[int] = None
) -> dict[VertexId, int]:
    """Return hop distances from ``source`` restricted to a subgraph view.

    Used to re-check the radius constraint of a candidate seed community
    *inside* the community (Definition 2 measures ``dist`` in ``g``, not in
    ``G``).
    """
    return bfs_distances(view.parent, source, max_depth=max_depth, allowed=view.vertices)


def eccentricity(view: SubgraphView, source: VertexId) -> int:
    """Return the eccentricity of ``source`` within ``view``.

    Raises
    ------
    GraphError
        If some vertex of the view is unreachable from ``source`` (the
        eccentricity would be infinite).
    """
    distances = hop_distances_within(view, source)
    if len(distances) != len(view):
        raise GraphError(
            f"vertex {source!r} does not reach all {len(view)} vertices of the view"
        )
    return max(distances.values(), default=0)
