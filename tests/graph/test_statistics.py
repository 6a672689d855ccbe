"""Unit tests for graph statistics."""

import pytest

from repro.graph.generators import complete_graph, ring_lattice_graph
from repro.graph.social_network import SocialNetwork
from repro.graph.statistics import (
    average_clustering,
    compute_statistics,
    count_triangles,
    local_clustering,
)


class TestTriangles:
    def test_triangle_graph_has_one_triangle(self, triangle_graph):
        assert count_triangles(triangle_graph) == 1

    def test_complete_graph_triangle_count(self):
        # K5 has C(5, 3) = 10 triangles.
        assert count_triangles(complete_graph(5, rng=1)) == 10

    def test_triangle_free_graph(self):
        graph = SocialNetwork()
        graph.add_edge(1, 2, 0.5)
        graph.add_edge(2, 3, 0.5)
        graph.add_edge(3, 4, 0.5)
        assert count_triangles(graph) == 0

    def test_empty_graph(self):
        assert count_triangles(SocialNetwork()) == 0


class TestClustering:
    def test_local_clustering_of_clique_member(self):
        graph = complete_graph(4, rng=1)
        assert local_clustering(graph, 0) == pytest.approx(1.0)

    def test_local_clustering_degree_below_two(self, triangle_graph):
        assert local_clustering(triangle_graph, "d") == 0.0

    def test_average_clustering_bounds(self):
        graph = ring_lattice_graph(30, ring_neighbors=4, rng=1)
        value = average_clustering(graph)
        assert 0.0 < value <= 1.0

    def test_average_clustering_empty_graph(self):
        assert average_clustering(SocialNetwork()) == 0.0


class TestComputeStatistics:
    def test_fields(self, triangle_graph):
        statistics = compute_statistics(triangle_graph)
        assert statistics.num_vertices == 4
        assert statistics.num_edges == 4
        assert statistics.num_triangles == 1
        assert statistics.max_degree == 3
        assert statistics.min_degree == 1
        assert statistics.avg_degree == pytest.approx(2.0)
        assert statistics.num_components == 1
        assert statistics.keyword_domain_size == 3
        assert 0.0 < statistics.avg_edge_probability <= 1.0

    def test_as_row_keys(self, triangle_graph):
        row = compute_statistics(triangle_graph).as_row()
        assert row["dataset"] == "triangle"
        assert row["|V(G)|"] == 4
        assert row["|E(G)|"] == 4

    def test_empty_graph_statistics(self):
        statistics = compute_statistics(SocialNetwork(name="empty"))
        assert statistics.num_vertices == 0
        assert statistics.avg_degree == 0.0
        assert statistics.avg_edge_probability == 0.0
