"""Maximal k-truss extraction.

A *k-truss* of a graph is a maximal subgraph in which every edge is contained
in at least ``k - 2`` triangles *of the subgraph* (Cohen 2008, as used by
Definition 2 of the paper).  The standard peeling algorithm repeatedly removes
edges whose support falls below ``k - 2``, recomputing the supports of the
triangles they destroyed, until a fixed point is reached.

The functions here operate on either a full :class:`SocialNetwork` or a
:class:`SubgraphView`; the result is expressed as a set of surviving edges
plus the set of vertices incident to them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Union

from repro.exceptions import GraphError
from repro.graph.social_network import SocialNetwork, VertexId
from repro.graph.subgraph import SubgraphView
from repro.truss.support import edge_key

GraphLike = Union[SocialNetwork, SubgraphView]


@dataclass(frozen=True)
class TrussResult:
    """Outcome of a maximal k-truss computation.

    Attributes
    ----------
    k:
        The truss parameter the result was computed for.
    vertices:
        Vertices incident to at least one surviving edge.
    edges:
        Surviving edges as canonical frozensets ``{u, v}``.
    """

    k: int
    vertices: frozenset
    edges: frozenset

    @property
    def is_empty(self) -> bool:
        """``True`` when no edge survives the peeling."""
        return not self.edges

    def contains_vertex(self, vertex: VertexId) -> bool:
        """Return ``True`` if ``vertex`` survives in the truss."""
        return vertex in self.vertices


def _adjacency_of(graph: GraphLike) -> dict[VertexId, set]:
    if isinstance(graph, SubgraphView):
        return {v: set(graph.neighbors(v)) for v in graph}
    return {v: graph.neighbor_set(v) for v in graph.vertices()}


def maximal_ktruss(graph: GraphLike, k: int) -> TrussResult:
    """Compute the maximal k-truss of ``graph`` by support peeling.

    Parameters
    ----------
    graph:
        A social network or subgraph view.
    k:
        Truss parameter (``k >= 2``); ``k = 2`` keeps every edge.

    Returns
    -------
    TrussResult
        The surviving vertices and edges.  The result may be disconnected; the
        seed-community extractor narrows it to the component of the centre.
    """
    if k < 2:
        raise GraphError(f"truss parameter k must be >= 2, got {k}")
    adjacency = _adjacency_of(graph)
    required = k - 2

    # Current supports.
    supports: dict[frozenset, int] = {}
    for u, neighbors in adjacency.items():
        for v in neighbors:
            key = edge_key(u, v)
            if key not in supports:
                supports[key] = len(adjacency[u] & adjacency[v])

    # Peel: repeatedly remove edges with support below the requirement.
    queue = deque(key for key, support in supports.items() if support < required)
    removed: set[frozenset] = set()
    while queue:
        key = queue.popleft()
        if key in removed or key not in supports:
            continue
        removed.add(key)
        u, v = tuple(key)
        # Removing (u, v) breaks every triangle (u, v, w); decrement the other
        # two edges of each such triangle.
        common = adjacency[u] & adjacency[v]
        adjacency[u].discard(v)
        adjacency[v].discard(u)
        del supports[key]
        for w in common:
            for a, b in ((u, w), (v, w)):
                other = edge_key(a, b)
                if other in supports and other not in removed:
                    supports[other] -= 1
                    if supports[other] < required:
                        queue.append(other)

    surviving_edges = frozenset(key for key in supports if key not in removed)
    surviving_vertices = frozenset(v for edge in surviving_edges for v in edge)
    return TrussResult(k=k, vertices=surviving_vertices, edges=surviving_edges)


def ktruss_component_of(graph: GraphLike, k: int, center: VertexId) -> frozenset:
    """Return the vertices of the maximal k-truss component containing ``center``.

    Connectivity is measured over the surviving truss edges only.  Returns the
    empty frozenset when ``center`` does not survive the peeling.
    """
    result = maximal_ktruss(graph, k)
    if center not in result.vertices:
        return frozenset()
    truss_adjacency: dict[VertexId, set] = {}
    for edge in result.edges:
        u, v = tuple(edge)
        truss_adjacency.setdefault(u, set()).add(v)
        truss_adjacency.setdefault(v, set()).add(u)
    component = {center}
    frontier = [center]
    while frontier:
        current = frontier.pop()
        for neighbour in truss_adjacency.get(current, ()):
            if neighbour not in component:
                component.add(neighbour)
                frontier.append(neighbour)
    return frozenset(component)


def is_ktruss(graph: GraphLike, k: int, require_connected: bool = True) -> bool:
    """Return ``True`` if ``graph`` (as given) is itself a k-truss.

    Every edge must have support >= ``k - 2`` measured inside ``graph``; when
    ``require_connected`` is set the graph must also be connected (single
    isolated vertices and the empty graph are rejected only if they have no
    edges *and* more than one vertex).
    """
    if k < 2:
        raise GraphError(f"truss parameter k must be >= 2, got {k}")
    adjacency = _adjacency_of(graph)
    if not adjacency:
        return True
    required = k - 2
    has_edges = False
    for u, neighbors in adjacency.items():
        for v in neighbors:
            has_edges = True
            if len(adjacency[u] & adjacency[v]) < required:
                return False
    if require_connected:
        if len(adjacency) > 1 and not has_edges:
            return False
        start = next(iter(adjacency))
        seen = {start}
        frontier = [start]
        while frontier:
            current = frontier.pop()
            for neighbour in adjacency[current]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        if len(seen) != len(adjacency):
            return False
    return True
