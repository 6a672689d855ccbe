"""Unit tests for community-level propagation (cpp, g_inf, sigma)."""

import pytest

from repro.exceptions import GraphError, VertexNotFoundError
from repro.graph.social_network import SocialNetwork
from repro.influence.propagation import (
    community_propagation,
    influential_score,
)


@pytest.fixture
def chain_graph() -> SocialNetwork:
    """0 - 1 - 2 - 3 - 4 with probability 0.5 on every direction."""
    graph = SocialNetwork()
    for v in range(5):
        graph.add_vertex(v, {"movies"})
    for v in range(4):
        graph.add_edge(v, v + 1, 0.5)
    return graph


class TestCommunityPropagation:
    def test_seed_members_have_probability_one(self, chain_graph):
        influenced = community_propagation(chain_graph, {1, 2}, threshold=0.1)
        assert influenced.cpp_of(1) == 1.0
        assert influenced.cpp_of(2) == 1.0

    def test_cpp_values_on_chain(self, chain_graph):
        influenced = community_propagation(chain_graph, {0}, threshold=0.1)
        assert influenced.cpp_of(1) == pytest.approx(0.5)
        assert influenced.cpp_of(2) == pytest.approx(0.25)
        assert influenced.cpp_of(3) == pytest.approx(0.125)
        # 0.0625 < 0.1, so vertex 4 is outside g_inf.
        assert influenced.cpp_of(4) == 0.0
        assert 4 not in influenced.vertices

    def test_multi_source_takes_maximum(self, chain_graph):
        influenced = community_propagation(chain_graph, {0, 4}, threshold=0.1)
        # Vertex 2 is two hops from both seeds.
        assert influenced.cpp_of(2) == pytest.approx(0.25)
        # Vertex 3 is one hop from seed 4.
        assert influenced.cpp_of(3) == pytest.approx(0.5)

    def test_threshold_zero_reaches_everything(self, chain_graph):
        influenced = community_propagation(chain_graph, {0}, threshold=0.0)
        assert influenced.vertices == frozenset(range(5))

    def test_score_sums_cpp(self, chain_graph):
        influenced = community_propagation(chain_graph, {0}, threshold=0.1)
        expected = 1.0 + 0.5 + 0.25 + 0.125
        assert influenced.score == pytest.approx(expected)
        assert influential_score(chain_graph, {0}, 0.1) == pytest.approx(expected)

    def test_influenced_only_excludes_seeds(self, chain_graph):
        influenced = community_propagation(chain_graph, {0, 1}, threshold=0.1)
        assert 0 not in influenced.influenced_only
        assert 2 in influenced.influenced_only

    def test_len_counts_ginf(self, chain_graph):
        influenced = community_propagation(chain_graph, {0}, threshold=0.1)
        assert len(influenced) == 4

    def test_empty_seed_rejected(self, chain_graph):
        with pytest.raises(GraphError):
            community_propagation(chain_graph, set(), threshold=0.1)

    def test_unknown_seed_rejected(self, chain_graph):
        with pytest.raises(VertexNotFoundError):
            community_propagation(chain_graph, {99}, threshold=0.1)

    def test_threshold_one_rejected(self, chain_graph):
        with pytest.raises(GraphError):
            community_propagation(chain_graph, {0}, threshold=1.0)

    def test_higher_threshold_gives_smaller_community(self, chain_graph):
        loose = community_propagation(chain_graph, {0}, threshold=0.1)
        tight = community_propagation(chain_graph, {0}, threshold=0.3)
        assert tight.vertices <= loose.vertices
        assert tight.score <= loose.score

    def test_asymmetric_probabilities_used_in_seed_to_target_direction(self):
        graph = SocialNetwork()
        graph.add_edge("seed", "target", 0.9, 0.1)
        influenced = community_propagation(graph, {"seed"}, threshold=0.5)
        assert influenced.cpp_of("target") == pytest.approx(0.9)
        reverse = community_propagation(graph, {"target"}, threshold=0.05)
        assert reverse.cpp_of("seed") == pytest.approx(0.1)
