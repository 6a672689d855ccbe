"""Unit tests for the SocialNetwork data model."""

import random

import pytest

from repro.exceptions import (
    EdgeNotFoundError,
    GraphError,
    InvalidProbabilityError,
    VertexNotFoundError,
)
from repro.graph.social_network import SocialNetwork


class TestVertexOperations:
    def test_add_vertex_with_keywords(self):
        graph = SocialNetwork()
        graph.add_vertex(1, {"movies", "books"})
        assert graph.has_vertex(1)
        assert graph.keywords(1) == frozenset({"movies", "books"})

    def test_add_vertex_twice_merges_keywords(self):
        graph = SocialNetwork()
        graph.add_vertex(1, {"movies"})
        graph.add_vertex(1, {"books"})
        assert graph.keywords(1) == frozenset({"movies", "books"})

    def test_add_vertex_without_keywords(self):
        graph = SocialNetwork()
        graph.add_vertex("u")
        assert graph.keywords("u") == frozenset()

    def test_set_keywords_replaces(self):
        graph = SocialNetwork()
        graph.add_vertex(1, {"movies"})
        graph.set_keywords(1, {"sports"})
        assert graph.keywords(1) == frozenset({"sports"})

    def test_set_keywords_missing_vertex_raises(self):
        graph = SocialNetwork()
        with pytest.raises(VertexNotFoundError):
            graph.set_keywords(42, {"movies"})

    def test_contains_and_len(self):
        graph = SocialNetwork()
        graph.add_vertex(1)
        graph.add_vertex(2)
        assert 1 in graph
        assert 3 not in graph
        assert len(graph) == 2

    def test_keywords_missing_vertex_raises(self):
        graph = SocialNetwork()
        with pytest.raises(VertexNotFoundError):
            graph.keywords(9)


class TestEdgeOperations:
    def test_add_edge_creates_vertices(self):
        graph = SocialNetwork()
        graph.add_edge("u", "v", 0.7)
        assert graph.has_vertex("u")
        assert graph.has_vertex("v")
        assert graph.has_edge("u", "v")
        assert graph.has_edge("v", "u")

    def test_add_edge_symmetric_default_probability(self):
        graph = SocialNetwork()
        graph.add_edge(1, 2, 0.7)
        assert graph.probability(1, 2) == pytest.approx(0.7)
        assert graph.probability(2, 1) == pytest.approx(0.7)

    def test_add_edge_asymmetric_probabilities(self):
        graph = SocialNetwork()
        graph.add_edge(1, 2, 0.7, 0.3)
        assert graph.probability(1, 2) == pytest.approx(0.7)
        assert graph.probability(2, 1) == pytest.approx(0.3)

    def test_self_loop_rejected(self):
        graph = SocialNetwork()
        with pytest.raises(GraphError):
            graph.add_edge(1, 1, 0.5)

    def test_invalid_probability_rejected(self):
        graph = SocialNetwork()
        with pytest.raises(InvalidProbabilityError):
            graph.add_edge(1, 2, 1.5)
        with pytest.raises(InvalidProbabilityError):
            graph.add_edge(1, 2, -0.1)

    def test_non_numeric_probability_rejected(self):
        graph = SocialNetwork()
        with pytest.raises(InvalidProbabilityError):
            graph.add_edge(1, 2, "high")

    def test_set_probability(self):
        graph = SocialNetwork()
        graph.add_edge(1, 2, 0.5)
        graph.set_probability(1, 2, 0.9)
        assert graph.probability(1, 2) == pytest.approx(0.9)
        assert graph.probability(2, 1) == pytest.approx(0.5)

    def test_set_probability_missing_edge_raises(self):
        graph = SocialNetwork()
        graph.add_vertex(1)
        graph.add_vertex(2)
        with pytest.raises(EdgeNotFoundError):
            graph.set_probability(1, 2, 0.5)

    def test_probability_missing_edge_raises(self):
        graph = SocialNetwork()
        graph.add_vertex(1)
        graph.add_vertex(2)
        with pytest.raises(EdgeNotFoundError):
            graph.probability(1, 2)

    def test_remove_edge(self):
        graph = SocialNetwork()
        graph.add_edge(1, 2, 0.5)
        graph.remove_edge(1, 2)
        assert not graph.has_edge(1, 2)
        assert graph.has_vertex(1)
        with pytest.raises(EdgeNotFoundError):
            graph.remove_edge(1, 2)

    def test_edges_reported_once(self):
        graph = SocialNetwork()
        graph.add_edge(1, 2, 0.5)
        graph.add_edge(2, 3, 0.5)
        graph.add_edge(1, 3, 0.5)
        edges = list(graph.edges())
        assert len(edges) == 3
        as_sets = {frozenset(edge) for edge in edges}
        assert as_sets == {frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 3})}

    def test_degree_and_neighbors(self, triangle_graph):
        assert triangle_graph.degree("c") == 3
        assert set(triangle_graph.neighbors("c")) == {"a", "b", "d"}
        assert triangle_graph.neighbor_set("d") == {"c"}

    def test_counts(self, triangle_graph):
        assert triangle_graph.num_vertices() == 4
        assert triangle_graph.num_edges() == 4

    def test_readding_an_edge_does_not_count_twice(self, triangle_graph):
        triangle_graph.add_edge("b", "a", 0.1)
        assert triangle_graph.num_edges() == 4

    @pytest.mark.parametrize("seed", range(5))
    def test_edge_counter_survives_random_mutations(self, seed):
        rng = random.Random(seed)
        graph = SocialNetwork()
        for step in range(400):
            vertices = list(graph.vertices())
            roll = rng.random()
            if roll < 0.55 or len(vertices) < 2:
                u, v = rng.sample(range(30), 2)
                graph.add_edge(u, v, rng.random(), rng.random())
            elif roll < 0.95:
                u = rng.choice(vertices)
                neighbours = list(graph.neighbors(u))
                if neighbours:
                    graph.remove_edge(u, rng.choice(neighbours))
            else:
                graph = graph.copy()
            assert graph.num_edges() == len(list(graph.edges())), (seed, step)


class TestDerivedViews:
    def test_copy_is_independent(self, triangle_graph):
        clone = triangle_graph.copy()
        clone.add_edge("d", "a", 0.5)
        assert not triangle_graph.has_edge("d", "a")
        assert clone.has_edge("d", "a")
        assert clone.keywords("a") == triangle_graph.keywords("a")

    def test_induced_subgraph(self, triangle_graph):
        sub = triangle_graph.induced_subgraph({"a", "b", "c"})
        assert sub.num_vertices() == 3
        assert sub.num_edges() == 3
        assert not sub.has_vertex("d")
        assert sub.probability("a", "b") == triangle_graph.probability("a", "b")

    def test_induced_subgraph_ignores_unknown_vertices(self, triangle_graph):
        sub = triangle_graph.induced_subgraph({"a", "zzz"})
        assert sub.num_vertices() == 1

    def test_connected_component(self, triangle_graph):
        assert triangle_graph.connected_component("a") == {"a", "b", "c", "d"}

    def test_connected_components_two_parts(self):
        graph = SocialNetwork()
        graph.add_edge(1, 2, 0.5)
        graph.add_edge(3, 4, 0.5)
        graph.add_vertex(5)
        components = graph.connected_components()
        assert len(components) == 3
        assert len(components[0]) == 2

    def test_is_connected(self, triangle_graph):
        assert triangle_graph.is_connected()
        triangle_graph.add_vertex("island")
        assert not triangle_graph.is_connected()

    def test_empty_graph_is_connected(self):
        assert SocialNetwork().is_connected()

    def test_keyword_domain(self, triangle_graph):
        assert triangle_graph.keyword_domain() == frozenset({"movies", "books", "sports"})

    def test_iteration_order_is_insertion_order(self):
        graph = SocialNetwork()
        for vertex in (5, 2, 9):
            graph.add_vertex(vertex)
        assert list(graph.vertices()) == [5, 2, 9]


class TestLazySocialNetwork:
    """A graph built from a snapshot on first touch, then an ordinary one."""

    class _CountingSource:
        def __init__(self, graph):
            self.name = graph.name
            self.num_vertices = graph.num_vertices()
            self.snapshot = graph.freeze()
            self.thaws = 0

        def thaw(self):
            self.thaws += 1
            return self.snapshot.thaw()

    def _lazy(self, graph):
        from repro.graph.social_network import LazySocialNetwork

        source = self._CountingSource(graph)
        return LazySocialNetwork(source), source

    def test_name_reads_without_thawing(self, two_cliques_bridge):
        from repro.graph.social_network import LazySocialNetwork

        lazy, source = self._lazy(two_cliques_bridge)
        assert lazy.name == two_cliques_bridge.name
        assert lazy.num_vertices() == two_cliques_bridge.num_vertices()
        assert isinstance(lazy, SocialNetwork)
        assert type(lazy) is LazySocialNetwork
        assert source.thaws == 0

    def test_first_touch_thaws_once_and_becomes_plain(self, two_cliques_bridge):
        lazy, source = self._lazy(two_cliques_bridge)
        assert lazy.num_edges() == two_cliques_bridge.num_edges()
        assert type(lazy) is SocialNetwork
        assert list(lazy.vertices()) == list(two_cliques_bridge.vertices())
        for u, v in two_cliques_bridge.edges():
            assert lazy.probability(u, v) == two_cliques_bridge.probability(u, v)
            assert lazy.probability(v, u) == two_cliques_bridge.probability(v, u)
        for vertex in two_cliques_bridge.vertices():
            assert lazy.keywords(vertex) == two_cliques_bridge.keywords(vertex)
        assert source.thaws == 1

    @pytest.mark.parametrize(
        "touch",
        [
            lambda graph: len(graph),
            lambda graph: 0 in graph,
            lambda graph: list(graph),
            lambda graph: graph.keyword_domain(),
            lambda graph: graph.add_edge(0, 100, 0.5),
            lambda graph: graph._prob,
            lambda graph: graph.copy(),
        ],
    )
    def test_every_kind_of_touch_thaws(self, two_cliques_bridge, touch):
        lazy, source = self._lazy(two_cliques_bridge)
        touch(lazy)
        assert type(lazy) is SocialNetwork
        assert source.thaws == 1

    def test_mutation_after_thaw_is_kept(self, two_cliques_bridge):
        lazy, _ = self._lazy(two_cliques_bridge)
        lazy.add_edge(0, 100, 0.5)
        assert lazy.has_edge(0, 100)
        assert lazy.num_edges() == two_cliques_bridge.num_edges() + 1

    def test_copies_and_pickles_are_plain_graphs(self, two_cliques_bridge):
        import copy
        import pickle

        for clone in (
            copy.deepcopy(self._lazy(two_cliques_bridge)[0]),
            pickle.loads(pickle.dumps(self._lazy(two_cliques_bridge)[0])),
        ):
            assert type(clone) is SocialNetwork
            assert clone.num_edges() == two_cliques_bridge.num_edges()
            assert list(clone.vertices()) == list(two_cliques_bridge.vertices())
