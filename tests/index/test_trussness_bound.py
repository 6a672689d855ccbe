"""Unit tests for the tightened support bound (centre-vertex trussness)."""

import pytest

from repro.index.node import EntryAggregates
from repro.index.precompute import precompute
from repro.index.tree import build_tree_index
from repro.pruning.rules import trussness_prune
from repro.truss.decomposition import truss_decomposition

from tests.conftest import assert_same_records


class TestTrussnessPruneRule:
    def test_prunes_below_k(self):
        assert trussness_prune(center_trussness_bound=3, k=4)
        assert not trussness_prune(center_trussness_bound=4, k=4)
        assert not trussness_prune(center_trussness_bound=7, k=4)

    def test_minimum_trussness_never_prunes_k2(self):
        assert not trussness_prune(center_trussness_bound=2, k=2)


class TestPrecomputedTrussness:
    def test_matches_truss_decomposition(self, two_cliques_bridge):
        data = precompute(two_cliques_bridge, max_radius=1)
        decomposition = truss_decomposition(two_cliques_bridge)
        for vertex in two_cliques_bridge.vertices():
            assert (
                data.aggregates_of(vertex).center_trussness
                == decomposition.trussness_of_vertex(vertex)
            )

    def test_clique_vertices_have_high_trussness(self, two_cliques_bridge):
        data = precompute(two_cliques_bridge, max_radius=1)
        assert data.aggregates_of(0).center_trussness == 4
        assert data.aggregates_of(4).center_trussness == 2  # bridge vertex

    def test_serialization_round_trip(self, two_cliques_bridge, tmp_path):
        from repro.core.config import EngineConfig
        from repro.core.engine import InfluentialCommunityEngine

        engine = InfluentialCommunityEngine.build(
            two_cliques_bridge, config=EngineConfig(max_radius=1), validate=False
        )
        path = tmp_path / "trussness.repro-store"
        engine.checkpoint_store(path)
        data = engine.index.precomputed
        rebuilt = InfluentialCommunityEngine.from_store(path).index.precomputed
        for vertex in two_cliques_bridge.vertices():
            assert (
                rebuilt.aggregates_of(vertex).center_trussness
                == data.aggregates_of(vertex).center_trussness
            )
        assert_same_records(rebuilt, data)


class TestEntryAggregation:
    def test_entry_bound_is_max_over_subtree(self, two_cliques_bridge):
        index = build_tree_index(two_cliques_bridge, max_radius=1, leaf_capacity=3, fanout=2)
        decomposition = truss_decomposition(two_cliques_bridge)

        def check(node):
            expected = max(
                decomposition.trussness_of_vertex(v) for v in node.subtree_vertices()
            )
            assert node.aggregates.trussness_bound == expected
            for child in node.children:
                check(child)

        check(index.root)

    def test_root_bound_equals_graph_max_trussness(self, two_cliques_bridge):
        index = build_tree_index(two_cliques_bridge, max_radius=1)
        assert index.root.aggregates.trussness_bound == 4

    def test_combine_takes_max(self, two_cliques_bridge):
        from repro.index.precompute import precompute as run_precompute

        data = run_precompute(two_cliques_bridge, max_radius=1)
        clique_entry = EntryAggregates.from_vertex(data.aggregates_of(0))
        bridge_entry = EntryAggregates.from_vertex(data.aggregates_of(4))
        combined = EntryAggregates.combine([clique_entry, bridge_entry])
        assert combined.trussness_bound == 4


class TestQueryBehaviour:
    def test_low_trussness_centers_pruned_without_extraction(self, two_cliques_bridge):
        """Bridge vertices cannot host a 4-truss: support pruning removes them."""
        from repro.query.params import make_topl_query
        from repro.query.topl import TopLProcessor

        index = build_tree_index(two_cliques_bridge, max_radius=2)
        processor = TopLProcessor(two_cliques_bridge, index=index)
        # "travel" is carried only by the bridge vertices 4 and 5.
        query = make_topl_query({"travel"}, k=4, radius=2, theta=0.1, top_l=2)
        result = processor.query(query)
        assert len(result) == 0
        assert result.statistics.pruned_by_support >= 1
        assert result.statistics.communities_scored == 0

    def test_answers_unchanged_with_and_without_support_rule(self, small_world_graph, small_engine):
        from repro.pruning.stats import PruningConfig
        from repro.query.params import make_topl_query
        from repro.query.topl import TopLProcessor

        keywords = set(list(sorted(small_world_graph.keyword_domain()))[:6])
        query = make_topl_query(keywords, k=4, radius=2, theta=0.2, top_l=3)
        with_rule = TopLProcessor(small_world_graph, index=small_engine.index).query(query)
        without_rule = TopLProcessor(
            small_world_graph,
            index=small_engine.index,
            pruning=PruningConfig(keyword=True, support=False, score=True),
        ).query(query)
        assert list(with_rule.scores) == pytest.approx(list(without_rule.scores))
