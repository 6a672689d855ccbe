"""Unit tests for seed-community extraction (Definition 2)."""

from repro.graph.social_network import SocialNetwork
from repro.query.params import make_topl_query
from repro.query.seed import (
    extract_seed_community,
    is_valid_seed_community,
)


class TestExtractSeedCommunity:
    def test_clique_is_extracted(self, clique5):
        query = make_topl_query({"movies"}, k=4, radius=1, theta=0.1, top_l=1)
        community = extract_seed_community(clique5, 0, query)
        assert community == frozenset(range(5))
        assert is_valid_seed_community(clique5, community, 0, query)

    def test_center_without_query_keyword_gives_none(self, clique5):
        query = make_topl_query({"gaming"}, k=3, radius=1, theta=0.1, top_l=1)
        assert extract_seed_community(clique5, 0, query) is None

    def test_keyword_filter_removes_vertices(self, two_cliques_bridge):
        query = make_topl_query({"movies"}, k=4, radius=2, theta=0.1, top_l=1)
        community = extract_seed_community(two_cliques_bridge, 0, query)
        # Only clique A carries "movies"; bridge/clique B are filtered out.
        assert community == frozenset(range(4))

    def test_truss_constraint_removes_weak_parts(self, triangle_graph):
        query = make_topl_query({"movies", "books", "sports"}, k=3, radius=2, theta=0.1, top_l=1)
        community = extract_seed_community(triangle_graph, "a", query)
        # Vertex d carries a query keyword but its only edge has no triangle.
        assert community == frozenset({"a", "b", "c"})

    def test_too_strict_truss_gives_none(self, triangle_graph):
        query = make_topl_query({"movies", "books"}, k=4, radius=2, theta=0.1, top_l=1)
        assert extract_seed_community(triangle_graph, "a", query) is None

    def test_unknown_center_gives_none(self, clique5):
        query = make_topl_query({"movies"}, k=3, radius=1, theta=0.1, top_l=1)
        assert extract_seed_community(clique5, 99, query) is None

    def test_radius_constraint_respected(self):
        """A long chain of triangles is cut at the radius even though the truss allows it."""
        graph = SocialNetwork()
        # Chain of triangles: (0,1,2), (2,3,4), (4,5,6) ... each adjacent pair shares a vertex.
        for i in range(0, 8, 2):
            graph.add_edge(i, i + 1, 0.6)
            graph.add_edge(i + 1, i + 2, 0.6)
            graph.add_edge(i, i + 2, 0.6)
        for vertex in graph.vertices():
            graph.set_keywords(vertex, {"movies"})
        query = make_topl_query({"movies"}, k=3, radius=2, theta=0.1, top_l=1)
        community = extract_seed_community(graph, 0, query)
        assert community is not None
        assert all(v in community for v in (0, 1, 2))
        # Vertices at distance > 2 in the chain must be excluded.
        assert 5 not in community
        assert 6 not in community
        assert is_valid_seed_community(graph, community, 0, query)

    def test_interleaved_constraints_reach_fixed_point(self):
        """Removing a far vertex breaks the truss of nearer ones, cascading correctly."""
        graph = SocialNetwork()
        # Triangle (0,1,2) near the centre plus a triangle (2,3,4) where 3 and
        # 4 are 2+ hops away from 0 only through 2.
        edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (4, 5), (5, 3)]
        for u, v in edges:
            graph.add_edge(u, v, 0.6)
        for vertex in graph.vertices():
            graph.set_keywords(vertex, {"movies"})
        query = make_topl_query({"movies"}, k=3, radius=1, theta=0.1, top_l=1)
        community = extract_seed_community(graph, 0, query)
        assert community == frozenset({0, 1, 2})

    def test_result_always_contains_center(self, small_world_graph):
        query = make_topl_query(
            set(list(small_world_graph.keyword_domain())[:5]), k=3, radius=2, theta=0.2, top_l=1
        )
        for center in list(small_world_graph.vertices())[:30]:
            community = extract_seed_community(small_world_graph, center, query)
            if community is not None:
                assert center in community
                assert is_valid_seed_community(small_world_graph, community, center, query)


class TestIsValidSeedCommunity:
    def test_rejects_center_outside(self, clique5):
        query = make_topl_query({"movies"}, k=3, radius=1, theta=0.1, top_l=1)
        assert not is_valid_seed_community(clique5, frozenset({1, 2, 3}), 0, query)

    def test_rejects_disconnected(self, two_cliques_bridge):
        query = make_topl_query({"movies", "books"}, k=3, radius=3, theta=0.1, top_l=1)
        vertices = frozenset(range(4)) | frozenset(range(6, 10))
        assert not is_valid_seed_community(two_cliques_bridge, vertices, 0, query)

    def test_rejects_keyword_violation(self, two_cliques_bridge):
        query = make_topl_query({"movies"}, k=3, radius=3, theta=0.1, top_l=1)
        vertices = frozenset(range(5))  # vertex 4 has only "travel"
        assert not is_valid_seed_community(two_cliques_bridge, vertices, 0, query)

    def test_rejects_truss_violation(self, triangle_graph):
        query = make_topl_query({"movies", "books", "sports"}, k=3, radius=2, theta=0.1, top_l=1)
        assert not is_valid_seed_community(
            triangle_graph, frozenset({"a", "b", "c", "d"}), "a", query
        )

    def test_accepts_extractor_output(self, two_cliques_bridge):
        query = make_topl_query({"books"}, k=4, radius=1, theta=0.1, top_l=1)
        community = extract_seed_community(two_cliques_bridge, 7, query)
        assert is_valid_seed_community(two_cliques_bridge, community, 7, query)
