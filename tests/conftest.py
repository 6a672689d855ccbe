"""Shared fixtures for the test suite.

Expensive artefacts (engines, indexes over generated graphs) are
session-scoped so they are built once and reused by many tests; small
hand-crafted graphs are function-scoped because tests mutate them.
"""

from __future__ import annotations

import pytest

from repro.core.engine import InfluentialCommunityEngine
from repro.graph.datasets import uni
from repro.graph.generators import complete_graph, planted_community_graph
from repro.graph.social_network import SocialNetwork
from repro.workloads.queries import QueryWorkload


def build_triangle_graph() -> SocialNetwork:
    """A single triangle plus a pendant vertex, with simple keywords."""
    graph = SocialNetwork(name="triangle")
    graph.add_vertex("a", {"movies"})
    graph.add_vertex("b", {"movies", "books"})
    graph.add_vertex("c", {"books"})
    graph.add_vertex("d", {"sports"})
    graph.add_edge("a", "b", 0.8)
    graph.add_edge("b", "c", 0.7)
    graph.add_edge("a", "c", 0.9)
    graph.add_edge("c", "d", 0.5)
    return graph


def build_two_cliques_bridge() -> SocialNetwork:
    """Two 4-cliques joined by a 2-edge bridge path.

    Clique A = {0, 1, 2, 3} tagged "movies"; clique B = {6, 7, 8, 9} tagged
    "books"; bridge vertices 4 and 5 tagged "travel".  Every edge carries
    probability 0.6 so influence scores are easy to reason about.
    """
    graph = SocialNetwork(name="two-cliques")
    for vertex in range(4):
        graph.add_vertex(vertex, {"movies"})
    for vertex in (4, 5):
        graph.add_vertex(vertex, {"travel"})
    for vertex in range(6, 10):
        graph.add_vertex(vertex, {"books"})
    for block in (range(4), range(6, 10)):
        members = list(block)
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                graph.add_edge(u, v, 0.6)
    graph.add_edge(3, 4, 0.6)
    graph.add_edge(4, 5, 0.6)
    graph.add_edge(5, 6, 0.6)
    return graph


def assert_same_records(actual, expected) -> None:
    """Assert two :class:`~repro.index.precompute.PrecomputedData` are equal,
    record by record, in the same insertion order.

    Vertex ids and edge endpoints are compared with their types (``1`` and
    ``"1"`` differ), so a reconstruction that reorders or retypes a vertex,
    or changes any bit vector, bound, trussness or edge support, fails.
    """
    assert (actual.max_radius, tuple(actual.thresholds), actual.num_bits) == (
        expected.max_radius,
        tuple(expected.thresholds),
        expected.num_bits,
    )
    assert [(type(v), v) for v in actual.vertex_aggregates] == [
        (type(v), v) for v in expected.vertex_aggregates
    ]
    assert list(actual.vertex_aggregates.values()) == list(
        expected.vertex_aggregates.values()
    )

    def typed_edges(data):
        return [
            (frozenset((type(u), u) for u in edge), support)
            for edge, support in data.global_edge_support.items()
        ]

    assert typed_edges(actual) == typed_edges(expected)


@pytest.fixture
def triangle_graph() -> SocialNetwork:
    return build_triangle_graph()


@pytest.fixture
def two_cliques_bridge() -> SocialNetwork:
    return build_two_cliques_bridge()


@pytest.fixture
def clique5() -> SocialNetwork:
    graph = complete_graph(5, rng=3, name="k5")
    for vertex in graph.vertices():
        graph.set_keywords(vertex, {"movies"})
    return graph


@pytest.fixture
def planted_graph() -> SocialNetwork:
    graph = planted_community_graph(
        [8, 8, 6], intra_probability=0.8, inter_probability=0.05, rng=5
    )
    for vertex in graph.vertices():
        graph.set_keywords(vertex, {"movies"} if vertex < 16 else {"books"})
    return graph


@pytest.fixture(scope="session")
def small_world_graph() -> SocialNetwork:
    """A 150-vertex Uni graph shared (read-only) across the session."""
    return uni(num_vertices=150, rng=3)


@pytest.fixture(scope="session")
def small_engine(small_world_graph) -> InfluentialCommunityEngine:
    """An engine over the session graph; building it is the expensive part."""
    return InfluentialCommunityEngine.build(small_world_graph, validate=False)


@pytest.fixture(scope="session")
def small_workload(small_world_graph) -> QueryWorkload:
    return QueryWorkload(small_world_graph, rng=11)
