"""Unit tests for the MIA model primitives (maximum influence paths, upp)."""

import pytest

from repro.exceptions import GraphError, VertexNotFoundError
from repro.graph.social_network import SocialNetwork
from repro.influence.mia import (
    maximum_influence_paths,
    user_to_user_propagation,
)


@pytest.fixture
def diamond_graph() -> SocialNetwork:
    """Two parallel paths from s to t with different probabilities.

    s -> a -> t has probability 0.9 * 0.9 = 0.81;
    s -> b -> t has probability 0.5 * 0.5 = 0.25;
    the direct edge s -> t has probability 0.3.
    """
    graph = SocialNetwork()
    graph.add_edge("s", "a", 0.9)
    graph.add_edge("a", "t", 0.9)
    graph.add_edge("s", "b", 0.5)
    graph.add_edge("b", "t", 0.5)
    graph.add_edge("s", "t", 0.3)
    return graph


class TestUserToUserPropagation:
    def test_picks_the_best_path(self, diamond_graph):
        assert user_to_user_propagation(diamond_graph, "s", "t") == pytest.approx(0.81)

    def test_identity(self, diamond_graph):
        assert user_to_user_propagation(diamond_graph, "s", "s") == 1.0

    def test_unreachable_is_zero(self, diamond_graph):
        diamond_graph.add_vertex("island")
        assert user_to_user_propagation(diamond_graph, "s", "island") == 0.0

    def test_asymmetric_direction_respected(self):
        graph = SocialNetwork()
        graph.add_edge(1, 2, 0.9, 0.1)
        assert user_to_user_propagation(graph, 1, 2) == pytest.approx(0.9)
        assert user_to_user_propagation(graph, 2, 1) == pytest.approx(0.1)

    def test_missing_vertices_rejected(self, diamond_graph):
        with pytest.raises(VertexNotFoundError):
            user_to_user_propagation(diamond_graph, "zzz", "t")
        with pytest.raises(VertexNotFoundError):
            user_to_user_propagation(diamond_graph, "s", "zzz")


class TestMaximumInfluencePaths:
    def test_all_reachable_with_zero_threshold(self, diamond_graph):
        probabilities = maximum_influence_paths(diamond_graph, "s")
        assert probabilities["s"] == 1.0
        assert probabilities["t"] == pytest.approx(0.81)
        assert probabilities["a"] == pytest.approx(0.9)
        assert probabilities["b"] == pytest.approx(0.5)

    def test_threshold_truncates(self, diamond_graph):
        probabilities = maximum_influence_paths(diamond_graph, "s", threshold=0.6)
        assert "b" not in probabilities
        assert probabilities["t"] == pytest.approx(0.81)

    def test_threshold_exactness(self):
        """Truncation never under-reports a value above the threshold."""
        graph = SocialNetwork()
        # Chain with decreasing products: 0.9, 0.81, 0.729...
        for i in range(5):
            graph.add_edge(i, i + 1, 0.9)
        probabilities = maximum_influence_paths(graph, 0, threshold=0.75)
        assert probabilities == {
            0: 1.0,
            1: pytest.approx(0.9),
            2: pytest.approx(0.81),
        }

    def test_allowed_restricts_paths(self, diamond_graph):
        probabilities = maximum_influence_paths(
            diamond_graph, "s", allowed=frozenset({"s", "b", "t"})
        )
        # The best remaining path to t is through b (0.25) or direct (0.3).
        assert probabilities["t"] == pytest.approx(0.3)

    def test_invalid_threshold(self, diamond_graph):
        with pytest.raises(GraphError):
            maximum_influence_paths(diamond_graph, "s", threshold=1.5)

    def test_source_outside_allowed(self, diamond_graph):
        with pytest.raises(GraphError):
            maximum_influence_paths(diamond_graph, "s", allowed=frozenset({"a", "t"}))
