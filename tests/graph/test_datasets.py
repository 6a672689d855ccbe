"""Unit tests for the dataset registry and stand-in generators."""

import pytest

from repro.exceptions import DatasetError
from repro.graph.datasets import (
    PAPER_DATASET_SIZES,
    amazon_like,
    dataset_names,
    dblp_like,
    gau,
    load_dataset,
    synthetic_small_world,
    uni,
    zipf,
)
from repro.graph.statistics import average_clustering


class TestRegistry:
    def test_dataset_names_match_paper(self):
        assert dataset_names() == ("dblp", "amazon", "uni", "gau", "zipf")

    def test_load_dataset_by_name(self):
        graph = load_dataset("uni", num_vertices=120, rng=1)
        assert graph.num_vertices() > 0
        assert graph.name == "Uni"

    def test_load_dataset_case_insensitive(self):
        graph = load_dataset("ZIPF", num_vertices=120, rng=1)
        assert graph.name == "Zipf"

    def test_unknown_dataset_rejected(self):
        with pytest.raises(DatasetError):
            load_dataset("twitter")

    def test_paper_sizes_recorded(self):
        assert PAPER_DATASET_SIZES["DBLP"]["num_vertices"] == 317_080
        assert PAPER_DATASET_SIZES["Amazon"]["num_edges"] == 925_872


class TestSyntheticGraphs:
    def test_uni_gau_zipf_have_keywords_and_weights(self):
        for loader in (uni, gau, zipf):
            graph = loader(num_vertices=150, rng=2)
            assert graph.is_connected()
            assert all(len(graph.keywords(v)) >= 1 for v in graph.vertices())
            for u, v in graph.edges():
                assert 0.5 <= graph.probability(u, v) < 0.6

    def test_unknown_distribution_rejected(self):
        with pytest.raises(DatasetError):
            synthetic_small_world("poisson", num_vertices=50)

    def test_keyword_domain_respected(self):
        graph = uni(num_vertices=200, domain_size=10, rng=4)
        assert len(graph.keyword_domain()) <= 10

    def test_keywords_per_vertex_respected(self):
        graph = uni(num_vertices=100, keywords_per_vertex=2, rng=4)
        assert all(len(graph.keywords(v)) == 2 for v in graph.vertices())

    def test_deterministic_given_seed(self):
        graph1 = uni(num_vertices=100, rng=9)
        graph2 = uni(num_vertices=100, rng=9)
        assert graph1.num_edges() == graph2.num_edges()
        assert all(graph1.keywords(v) == graph2.keywords(v) for v in graph1.vertices())


class TestRealStandins:
    def test_dblp_like_is_clustered(self):
        graph = dblp_like(num_vertices=300, rng=3)
        assert graph.is_connected()
        # Co-authorship cliques yield a clearly non-trivial clustering coefficient.
        assert average_clustering(graph) > 0.2

    def test_amazon_like_has_heavy_tail(self):
        graph = amazon_like(num_vertices=300, rng=3)
        assert graph.is_connected()
        degrees = sorted((graph.degree(v) for v in graph.vertices()), reverse=True)
        assert degrees[0] > 3 * (sum(degrees) / len(degrees))

    def test_standins_have_keywords(self):
        for loader in (dblp_like, amazon_like):
            graph = loader(num_vertices=120, rng=5)
            assert all(len(graph.keywords(v)) >= 1 for v in graph.vertices())

    def test_too_small_standins_rejected(self):
        with pytest.raises(DatasetError):
            dblp_like(num_vertices=5)
        with pytest.raises(DatasetError):
            amazon_like(num_vertices=5)
