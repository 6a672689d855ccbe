"""Unit tests for query workload generation."""

import pytest

from repro.exceptions import DatasetError
from repro.graph.social_network import SocialNetwork
from repro.workloads.queries import QueryWorkload


class TestQueryWorkload:
    def test_sample_keywords_from_domain(self, small_world_graph):
        workload = QueryWorkload(small_world_graph, rng=1)
        keywords = workload.sample_keywords(5)
        assert len(keywords) == 5
        assert keywords <= small_world_graph.keyword_domain()

    def test_sample_capped_at_domain_size(self, triangle_graph):
        workload = QueryWorkload(triangle_graph, rng=1)
        keywords = workload.sample_keywords(50)
        assert keywords == triangle_graph.keyword_domain()

    def test_graph_without_keywords_rejected(self):
        graph = SocialNetwork()
        graph.add_edge(1, 2, 0.5)
        with pytest.raises(DatasetError):
            QueryWorkload(graph)

    def test_topl_query_parameters_passed_through(self, small_world_graph):
        workload = QueryWorkload(small_world_graph, rng=2)
        query = workload.topl_query(num_keywords=3, k=3, radius=1, theta=0.3, top_l=7)
        assert len(query.keywords) == 3
        assert query.k == 3
        assert query.radius == 1
        assert query.theta == pytest.approx(0.3)
        assert query.top_l == 7

    def test_dtopl_query_candidate_factor(self, small_world_graph):
        workload = QueryWorkload(small_world_graph, rng=2)
        query = workload.dtopl_query(num_keywords=2, top_l=3, candidate_factor=4)
        assert query.num_candidates == 12

    def test_batches_have_requested_size(self, small_world_graph):
        workload = QueryWorkload(small_world_graph, rng=3)
        assert len(workload.topl_batch(4, num_keywords=2)) == 4
        assert len(workload.dtopl_batch(3, num_keywords=2)) == 3

    def test_reproducible_given_seed(self, small_world_graph):
        first = QueryWorkload(small_world_graph, rng=9).topl_batch(3, num_keywords=4)
        second = QueryWorkload(small_world_graph, rng=9).topl_batch(3, num_keywords=4)
        assert [q.keywords for q in first] == [q.keywords for q in second]
