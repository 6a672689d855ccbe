"""Unit tests for the community-level pruning rules (Lemmas 1-4)."""

from repro.graph.subgraph import SubgraphView
from repro.keywords.bitvector import BitVector
from repro.pruning.rules import (
    center_has_query_keyword,
    has_any_query_keyword,
    keyword_prune_by_bitvector,
    score_prune,
    select_score_bound,
    support_prune,
)


class TestKeywordPruning:
    def test_center_with_keyword_not_pruned(self, triangle_graph):
        assert center_has_query_keyword(triangle_graph, "a", frozenset({"movies"}))
        assert not center_has_query_keyword(triangle_graph, "d", frozenset({"movies"}))

    def test_bitvector_pruning_safe(self):
        candidate = BitVector.from_keywords({"movies", "books"})
        query = BitVector.from_keywords({"books"})
        assert not keyword_prune_by_bitvector(candidate, query)
        empty_candidate = BitVector.empty()
        assert keyword_prune_by_bitvector(empty_candidate, query)

    def test_exact_keyword_check(self, triangle_graph):
        view = SubgraphView(triangle_graph, {"a", "b", "c"})
        assert has_any_query_keyword(view, frozenset({"books"}))
        assert not has_any_query_keyword(view, frozenset({"gaming"}))


class TestSupportPruning:
    def test_threshold(self):
        assert support_prune(support_upper_bound=1, k=4)  # needs 2
        assert not support_prune(support_upper_bound=2, k=4)
        assert not support_prune(support_upper_bound=0, k=2)  # k=2 needs 0


class TestScorePruning:
    def test_prunes_only_when_bound_cannot_beat_lth(self):
        assert score_prune(score_upper_bound=10.0, current_lth_score=10.0)
        assert score_prune(score_upper_bound=9.0, current_lth_score=10.0)
        assert not score_prune(score_upper_bound=11.0, current_lth_score=10.0)

    def test_never_prunes_before_l_results(self):
        assert not score_prune(score_upper_bound=0.5, current_lth_score=float("-inf"))

    def test_select_score_bound(self):
        bounds = [(0.1, 40.0), (0.2, 25.0), (0.3, 12.0)]
        assert select_score_bound(bounds, 0.1) == 40.0
        assert select_score_bound(bounds, 0.25) == 25.0
        assert select_score_bound(bounds, 0.3) == 12.0
        assert select_score_bound(bounds, 0.9) == 12.0
        assert select_score_bound(bounds, 0.05) == float("inf")
        assert select_score_bound([], 0.2) == float("inf")
