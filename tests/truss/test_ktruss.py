"""Unit tests for maximal k-truss extraction."""

import pytest

from repro.exceptions import GraphError
from repro.graph.social_network import SocialNetwork
from repro.graph.subgraph import SubgraphView
from repro.truss.ktruss import (
    is_ktruss,
    ktruss_component_of,
    maximal_ktruss,
)
from repro.truss.support import edge_key


class TestMaximalKTruss:
    def test_k2_keeps_every_edge(self, triangle_graph):
        result = maximal_ktruss(triangle_graph, 2)
        assert result.edges == frozenset(
            {edge_key("a", "b"), edge_key("b", "c"), edge_key("a", "c"), edge_key("c", "d")}
        )

    def test_k3_keeps_only_the_triangle(self, triangle_graph):
        result = maximal_ktruss(triangle_graph, 3)
        assert result.vertices == frozenset({"a", "b", "c"})
        assert edge_key("c", "d") not in result.edges

    def test_k4_empties_a_single_triangle(self, triangle_graph):
        result = maximal_ktruss(triangle_graph, 4)
        assert result.is_empty

    def test_clique_is_its_own_truss(self, clique5):
        result = maximal_ktruss(clique5, 5)
        assert result.vertices == frozenset(range(5))
        assert len(result.edges) == 10
        assert maximal_ktruss(clique5, 6).is_empty

    def test_two_cliques_both_survive(self, two_cliques_bridge):
        result = maximal_ktruss(two_cliques_bridge, 4)
        assert result.vertices == frozenset(range(4)) | frozenset(range(6, 10))
        # bridge vertices do not participate in any 4-truss
        assert 4 not in result.vertices
        assert 5 not in result.vertices

    def test_peeling_cascades(self):
        # A triangle with a pendant triangle sharing one edge: removing the
        # weak part cascades correctly.
        graph = SocialNetwork()
        edges = [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5)]
        for u, v in edges:
            graph.add_edge(u, v, 0.5)
        result = maximal_ktruss(graph, 3)
        assert result.vertices == frozenset({1, 2, 3, 4, 5})
        result4 = maximal_ktruss(graph, 4)
        assert result4.is_empty

    def test_invalid_k_rejected(self, triangle_graph):
        with pytest.raises(GraphError):
            maximal_ktruss(triangle_graph, 1)

    def test_works_on_subgraph_view(self, two_cliques_bridge):
        view = SubgraphView(two_cliques_bridge, set(range(6)))
        result = maximal_ktruss(view, 4)
        assert result.vertices == frozenset(range(4))

    def test_truss_result_contains_vertex(self, triangle_graph):
        result = maximal_ktruss(triangle_graph, 3)
        assert result.contains_vertex("a")
        assert not result.contains_vertex("d")


class TestComponentOf:
    def test_component_of_center(self, two_cliques_bridge):
        component = ktruss_component_of(two_cliques_bridge, 4, 0)
        assert component == frozenset(range(4))

    def test_component_excludes_other_clique(self, two_cliques_bridge):
        component = ktruss_component_of(two_cliques_bridge, 3, 7)
        assert component == frozenset(range(6, 10))

    def test_center_not_in_truss_gives_empty(self, two_cliques_bridge):
        assert ktruss_component_of(two_cliques_bridge, 4, 4) == frozenset()

    def test_component_on_view(self, two_cliques_bridge):
        view = SubgraphView(two_cliques_bridge, set(range(10)))
        assert ktruss_component_of(view, 4, 9) == frozenset(range(6, 10))


class TestIsKTruss:
    def test_clique_is_ktruss(self, clique5):
        assert is_ktruss(clique5, 5)
        assert is_ktruss(clique5, 3)
        assert not is_ktruss(clique5, 6)

    def test_triangle_with_pendant_is_not_3truss(self, triangle_graph):
        assert not is_ktruss(triangle_graph, 3)

    def test_disconnected_graph_fails_when_required(self, two_cliques_bridge):
        view = SubgraphView(two_cliques_bridge, set(range(4)) | set(range(6, 10)))
        assert not is_ktruss(view, 4, require_connected=True)
        assert is_ktruss(view, 4, require_connected=False)

    def test_empty_graph_is_trivially_truss(self):
        assert is_ktruss(SocialNetwork(), 3)

    def test_invalid_k(self, clique5):
        with pytest.raises(GraphError):
            is_ktruss(clique5, 1)
