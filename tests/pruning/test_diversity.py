"""Unit tests for the diversity score and its pruning helpers."""

import pytest

from repro.influence.propagation import InfluencedCommunity
from repro.pruning.diversity import (
    apply_to_coverage,
    coverage_map,
    diversity_score,
    marginal_gain,
)


def make_influenced(seeds, cpp):
    return InfluencedCommunity(seed_vertices=frozenset(seeds), cpp=dict(cpp), threshold=0.1)


@pytest.fixture
def three_communities():
    g1 = make_influenced({1}, {1: 1.0, 2: 0.5, 3: 0.4})
    g2 = make_influenced({4}, {4: 1.0, 2: 0.8, 5: 0.3})
    g3 = make_influenced({6}, {6: 1.0, 3: 0.1})
    return g1, g2, g3


class TestDiversityScore:
    def test_single_community_equals_its_score(self, three_communities):
        g1, _, _ = three_communities
        assert diversity_score([g1]) == pytest.approx(g1.score)

    def test_overlap_counted_once_at_max(self, three_communities):
        g1, g2, _ = three_communities
        # vertex 2 is influenced by both; only the max (0.8) counts.
        expected = 1.0 + 0.8 + 0.4 + 1.0 + 0.3
        assert diversity_score([g1, g2]) == pytest.approx(expected)

    def test_empty_set(self):
        assert diversity_score([]) == 0.0

    def test_monotonicity(self, three_communities):
        g1, g2, g3 = three_communities
        d1 = diversity_score([g1])
        d2 = diversity_score([g1, g2])
        d3 = diversity_score([g1, g2, g3])
        assert d2 >= d1 - 1e-9
        assert d3 >= d2 - 1e-9

    def test_submodularity(self, three_communities):
        """Gain of adding g3 to a subset >= gain of adding it to a superset."""
        g1, g2, g3 = three_communities
        gain_small = diversity_score([g1, g3]) - diversity_score([g1])
        gain_large = diversity_score([g1, g2, g3]) - diversity_score([g1, g2])
        assert gain_small >= gain_large - 1e-9


class TestCoverageAndGain:
    def test_coverage_map(self, three_communities):
        g1, g2, _ = three_communities
        coverage = coverage_map([g1, g2])
        assert coverage[2] == pytest.approx(0.8)
        assert coverage[1] == pytest.approx(1.0)

    def test_marginal_gain_matches_difference(self, three_communities):
        g1, g2, g3 = three_communities
        coverage = coverage_map([g1, g2])
        expected = diversity_score([g1, g2, g3]) - diversity_score([g1, g2])
        assert marginal_gain(g3, coverage) == pytest.approx(expected)

    def test_marginal_gain_against_empty(self, three_communities):
        g1, _, _ = three_communities
        assert marginal_gain(g1, {}) == pytest.approx(g1.score)

    def test_apply_to_coverage_mutates(self, three_communities):
        g1, g2, _ = three_communities
        coverage = {}
        apply_to_coverage(g1, coverage)
        apply_to_coverage(g2, coverage)
        assert coverage == coverage_map([g1, g2])
