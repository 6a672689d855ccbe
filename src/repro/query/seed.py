"""Seed community extraction (Definition 2).

Given a centre vertex ``v_q``, an r-hop subgraph ``hop(v_q, r)``, a truss
parameter ``k`` and the query keyword set ``Q``, the extractor finds the seed
community centred at ``v_q``: the largest connected subgraph containing
``v_q`` such that

1. every vertex lies within ``r`` hops of ``v_q`` *inside the community*,
2. the community is a k-truss, and
3. every vertex carries at least one query keyword.

The constraints interact (removing far vertices can break the truss condition
and vice versa), so the extractor alternates the two reductions until a fixed
point is reached.  Both reductions only ever *remove* vertices, so the loop
terminates after at most ``|hop(v_q, r)|`` iterations; the result is the
unique maximal subgraph satisfying all constraints (each constraint is
monotone: any satisfying subgraph is contained in the fixed point).
"""

from __future__ import annotations

from typing import Optional

from repro.graph.social_network import SocialNetwork, VertexId
from repro.graph.subgraph import SubgraphView
from repro.graph.traversal import hop_distances_within, hop_subgraph
from repro.query.params import TopLQuery
from repro.truss.ktruss import ktruss_component_of


def keyword_qualified_vertices(view: SubgraphView, keywords: frozenset) -> frozenset:
    """Return the vertices of ``view`` whose keyword set intersects ``keywords``."""
    return frozenset(v for v in view if view.keywords(v) & keywords)


def extract_seed_community(
    graph: SocialNetwork,
    center: VertexId,
    query: TopLQuery,
    candidate_view: Optional[SubgraphView] = None,
) -> Optional[frozenset]:
    """Extract the seed community centred at ``center`` for ``query``.

    Parameters
    ----------
    graph:
        The full social network ``G``.
    center:
        The candidate centre vertex ``v_q``.
    query:
        The query parameters (keywords, k, radius).
    candidate_view:
        Optionally, a pre-computed ``hop(center, radius)`` view to avoid
        recomputing the BFS (the online algorithm passes the view it already
        materialised for pruning).

    Returns
    -------
    frozenset or None
        The vertex set of the seed community, or ``None`` when no valid
        community centred at ``center`` exists.
    """
    if not graph.has_vertex(center):
        return None
    if not graph.keywords(center) & query.keywords:
        # The centre itself must carry a query keyword (it is part of g).
        return None

    if candidate_view is None:
        candidate_view = hop_subgraph(graph, center, query.radius)

    # Keyword constraint: drop every vertex without a query keyword.
    qualified = keyword_qualified_vertices(candidate_view, query.keywords)
    if center not in qualified:
        return None
    current = candidate_view.restrict(qualified)

    # Alternate truss + radius reductions to a fixed point.
    while True:
        if center not in current or len(current) < 2:
            return None

        truss_vertices = ktruss_component_of(current, query.k, center)
        if not truss_vertices or center not in truss_vertices:
            return None
        if len(truss_vertices) < len(current):
            current = current.restrict(truss_vertices)
            continue

        distances = hop_distances_within(current, center, max_depth=query.radius)
        within_radius = frozenset(distances)
        if len(within_radius) < len(current):
            current = current.restrict(within_radius)
            continue

        # Both constraints hold: fixed point reached.
        return frozenset(current.vertices)


def is_valid_seed_community(
    graph: SocialNetwork,
    vertices: frozenset,
    center: VertexId,
    query: TopLQuery,
) -> bool:
    """Check whether ``vertices`` satisfies every Definition 2 constraint.

    The library interprets a seed community as the vertex set of a connected
    k-truss (the standard edge-subgraph semantics of truss community search):
    every vertex must belong to the k-truss of the community's induced
    subgraph, the truss component containing the centre must span the whole
    community, every vertex must be within ``r`` hops of the centre inside the
    community, and every vertex must carry a query keyword.

    Used by tests and by the refinement step as a defence-in-depth assertion;
    the extractor's output always passes.
    """
    if center not in vertices:
        return False
    view = SubgraphView(graph, vertices, center=center)
    if not view.is_connected():
        return False
    if any(not (view.keywords(v) & query.keywords) for v in view):
        return False
    distances = hop_distances_within(view, center, max_depth=query.radius)
    if len(distances) != len(view):
        return False
    return ktruss_component_of(view, query.k, center) == frozenset(vertices)
