"""Unit tests for edge support computation."""

from repro.graph.generators import complete_graph
from repro.graph.social_network import SocialNetwork
from repro.graph.subgraph import SubgraphView
from repro.truss.support import (
    edge_key,
    edge_support,
    max_support,
)


class TestEdgeSupport:
    def test_triangle_edge_supports(self, triangle_graph):
        supports = edge_support(triangle_graph)
        assert supports[edge_key("a", "b")] == 1
        assert supports[edge_key("b", "c")] == 1
        assert supports[edge_key("a", "c")] == 1
        assert supports[edge_key("c", "d")] == 0

    def test_complete_graph_supports(self):
        graph = complete_graph(5, rng=1)
        supports = edge_support(graph)
        # Every edge of K5 is in 3 triangles.
        assert all(value == 3 for value in supports.values())

    def test_support_in_subgraph_view(self, triangle_graph):
        view = SubgraphView(triangle_graph, {"a", "b", "d"})
        supports = edge_support(view)
        assert supports[edge_key("a", "b")] == 0

    def test_max_support(self, triangle_graph):
        assert max_support(triangle_graph) == 1
        assert max_support(SocialNetwork()) == 0

    def test_supports_monotone_under_restriction(self, two_cliques_bridge):
        # Support measured in a subview never exceeds the full-graph support.
        full = edge_support(two_cliques_bridge)
        view = SubgraphView(two_cliques_bridge, {0, 1, 2, 4, 5})
        partial = edge_support(view)
        for key, value in partial.items():
            assert value <= full[key]
