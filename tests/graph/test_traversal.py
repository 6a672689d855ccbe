"""Unit tests for BFS traversal and r-hop subgraph extraction."""

import pytest

from repro.exceptions import GraphError, VertexNotFoundError
from repro.graph.social_network import SocialNetwork
from repro.graph.subgraph import SubgraphView
from repro.graph.traversal import (
    bfs_distances,
    eccentricity,
    hop_distances_within,
    hop_subgraph,
)


def build_path_graph(length: int) -> SocialNetwork:
    graph = SocialNetwork(name="path")
    for v in range(length):
        graph.add_vertex(v, {"movies"})
    for v in range(length - 1):
        graph.add_edge(v, v + 1, 0.6)
    return graph


class TestBfsDistances:
    def test_distances_on_path(self):
        graph = build_path_graph(5)
        distances = bfs_distances(graph, 0)
        assert distances == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_max_depth_truncates(self):
        graph = build_path_graph(6)
        distances = bfs_distances(graph, 0, max_depth=2)
        assert distances == {0: 0, 1: 1, 2: 2}

    def test_max_depth_zero(self):
        graph = build_path_graph(3)
        assert bfs_distances(graph, 1, max_depth=0) == {1: 0}

    def test_negative_depth_rejected(self):
        graph = build_path_graph(3)
        with pytest.raises(GraphError):
            bfs_distances(graph, 0, max_depth=-1)

    def test_missing_source_rejected(self):
        graph = build_path_graph(3)
        with pytest.raises(VertexNotFoundError):
            bfs_distances(graph, 99)

    def test_allowed_restricts_traversal(self):
        graph = build_path_graph(5)
        distances = bfs_distances(graph, 0, allowed=frozenset({0, 1, 3, 4}))
        assert distances == {0: 0, 1: 1}

    def test_source_outside_allowed_rejected(self):
        graph = build_path_graph(3)
        with pytest.raises(GraphError):
            bfs_distances(graph, 0, allowed=frozenset({1, 2}))

    def test_disconnected_vertices_absent(self):
        graph = build_path_graph(3)
        graph.add_vertex(99)
        distances = bfs_distances(graph, 0)
        assert 99 not in distances


class TestHopSubgraph:
    def test_radius_one(self, triangle_graph):
        view = hop_subgraph(triangle_graph, "a", 1)
        assert view.vertices == frozenset({"a", "b", "c"})
        assert view.center == "a"

    def test_radius_two_includes_pendant(self, triangle_graph):
        view = hop_subgraph(triangle_graph, "a", 2)
        assert view.vertices == frozenset({"a", "b", "c", "d"})

    def test_radius_zero_is_center_only(self, triangle_graph):
        view = hop_subgraph(triangle_graph, "b", 0)
        assert view.vertices == frozenset({"b"})

    def test_negative_radius_rejected(self, triangle_graph):
        with pytest.raises(GraphError):
            hop_subgraph(triangle_graph, "a", -1)

    def test_hop_subgraph_on_path(self):
        graph = build_path_graph(7)
        view = hop_subgraph(graph, 3, 2)
        assert view.vertices == frozenset({1, 2, 3, 4, 5})


class TestWithinViewDistances:
    def test_distances_measured_inside_view(self, triangle_graph):
        # Inside the view {a, d, c} the a-c edge still exists, so c is 1 hop.
        view = SubgraphView(triangle_graph, {"a", "c", "d"})
        distances = hop_distances_within(view, "a")
        assert distances == {"a": 0, "c": 1, "d": 2}

    def test_distances_change_when_shortcut_removed(self):
        graph = build_path_graph(4)
        graph.add_edge(0, 3, 0.6)
        full = SubgraphView(graph, {0, 1, 2, 3})
        assert hop_distances_within(full, 0)[3] == 1
        without_shortcut = SubgraphView(graph, {0, 1, 2})
        assert hop_distances_within(without_shortcut, 0)[2] == 2

    def test_eccentricity(self, triangle_graph):
        view = SubgraphView(triangle_graph, {"a", "b", "c", "d"})
        assert eccentricity(view, "c") == 1
        assert eccentricity(view, "d") == 2

    def test_eccentricity_unreachable_raises(self, triangle_graph):
        view = SubgraphView(triangle_graph, {"a", "d"})
        with pytest.raises(GraphError):
            eccentricity(view, "a")
