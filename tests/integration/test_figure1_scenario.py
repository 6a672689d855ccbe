"""Integration test modelled on the paper's running example (Figure 1).

The figure shows a small social network of eleven users with shopping-interest
keyword sets; a dense "Movies" seed community with high influence on the rest
of the network, and a second, less-overlapping community that DTop2-ICDE
prefers for diversified promotion.  The exact edge list is not given in the
paper, so this scenario builds an equivalent instance: two dense keyword-
homogeneous communities whose influenced regions overlap, plus peripheral
users that are reached only through propagation.
"""

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import InfluentialCommunityEngine
from repro.graph.social_network import SocialNetwork
from repro.query.baselines import compare_with_kcore
from repro.query.params import make_dtopl_query, make_topl_query


def build_marketing_network() -> SocialNetwork:
    """Two movie-loving cliques and a jewellery clique with peripheral users."""
    graph = SocialNetwork(name="figure1-like")
    movie_clique_a = [1, 2, 3, 4]          # dense, near the periphery
    movie_clique_b = [5, 6, 7, 8]          # dense, farther from the periphery
    jewelry_clique = [9, 10, 11]           # small, low influence
    periphery = list(range(12, 22))        # influenced users

    for vertex in movie_clique_a + movie_clique_b:
        graph.add_vertex(vertex, {"movies", "books"})
    for vertex in jewelry_clique:
        graph.add_vertex(vertex, {"jewelry"})
    for vertex in periphery:
        graph.add_vertex(vertex, {"cosmetics"})

    def connect_clique(members, probability):
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                graph.add_edge(u, v, probability)

    connect_clique(movie_clique_a, 0.8)
    connect_clique(movie_clique_b, 0.8)
    connect_clique(jewelry_clique, 0.7)

    # Clique A reaches the periphery strongly; clique B reaches it weakly.
    for offset, vertex in enumerate(periphery):
        graph.add_edge(1, vertex, 0.8 if offset < 6 else 0.6)
    graph.add_edge(5, periphery[0], 0.6)
    graph.add_edge(5, periphery[1], 0.6)
    # The jewellery clique has a single weak link outward.
    graph.add_edge(9, periphery[2], 0.5)
    # Bridges so the network is connected.
    graph.add_edge(4, 5, 0.6)
    graph.add_edge(8, 9, 0.5)
    return graph


@pytest.fixture(scope="module")
def marketing_engine():
    graph = build_marketing_network()
    return InfluentialCommunityEngine.build(graph, config=EngineConfig(max_radius=2))


class TestTopLScenario:
    def test_movie_communities_found_for_movie_query(self, marketing_engine):
        query = make_topl_query({"movies"}, k=4, radius=1, theta=0.1, top_l=2)
        result = marketing_engine.topl(query)
        assert len(result) == 2
        found = {community.vertices for community in result}
        assert frozenset({1, 2, 3, 4}) in found
        assert frozenset({5, 6, 7, 8}) in found

    def test_best_community_is_the_one_reaching_the_periphery(self, marketing_engine):
        query = make_topl_query({"movies"}, k=4, radius=1, theta=0.1, top_l=2)
        result = marketing_engine.topl(query)
        assert result.best.vertices == frozenset({1, 2, 3, 4})
        assert result.scores[0] > result.scores[1]

    def test_influenced_community_larger_than_seed(self, marketing_engine):
        query = make_topl_query({"movies"}, k=4, radius=1, theta=0.1, top_l=1)
        best = marketing_engine.topl(query).best
        assert best.num_influenced > len(best)
        assert best.num_influenced_outside >= 6

    def test_jewelry_query_finds_jewelry_community(self, marketing_engine):
        query = make_topl_query({"jewelry"}, k=3, radius=1, theta=0.1, top_l=1)
        result = marketing_engine.topl(query)
        assert len(result) == 1
        assert result.best.vertices == frozenset({9, 10, 11})

    def test_keyword_mismatch_returns_nothing(self, marketing_engine):
        query = make_topl_query({"gardening"}, k=3, radius=1, theta=0.1, top_l=3)
        assert len(marketing_engine.topl(query)) == 0

    def test_topl_vs_kcore_case_study_shape(self, marketing_engine):
        """Figure 5 shape: the TopL community influences at least as many users."""
        query = make_topl_query({"movies"}, k=4, radius=1, theta=0.1, top_l=1)
        best = marketing_engine.topl(query).best
        comparison = compare_with_kcore(
            marketing_engine.graph, best, k=4, theta=best.influenced.threshold
        )
        assert (
            comparison["topl_icde"]["influenced_users"]
            >= comparison["kcore"]["influenced_users"]
        )


class TestDTopLScenario:
    def test_diversified_selection_avoids_overlap(self, marketing_engine):
        """DTop2-ICDE prefers the two movie cliques over near-duplicates."""
        query = make_dtopl_query(
            {"movies", "jewelry"}, k=3, radius=1, theta=0.1, top_l=2, candidate_factor=3
        )
        result = marketing_engine.dtopl(query)
        assert len(result) == 2
        picked = {community.vertices for community in result}
        # The top-influence community is always selected first.
        assert frozenset({1, 2, 3, 4}) in picked

    def test_diversity_score_not_less_than_best_single(self, marketing_engine):
        topl_query = make_topl_query({"movies", "jewelry"}, k=3, radius=1, theta=0.1, top_l=1)
        best_single = marketing_engine.topl(topl_query).best.score
        dtopl_query = make_dtopl_query(
            {"movies", "jewelry"}, k=3, radius=1, theta=0.1, top_l=2, candidate_factor=3
        )
        result = marketing_engine.dtopl(dtopl_query)
        assert result.diversity_score >= best_single - 1e-9
