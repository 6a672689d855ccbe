"""Unit and integration tests for the high-level engine."""

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import InfluentialCommunityEngine
from repro.exceptions import GraphError
from repro.query.baselines import compare_with_kcore, kcore_community
from repro.query.params import make_dtopl_query, make_topl_query


class TestBuild:
    def test_build_and_describe(self, two_cliques_bridge):
        engine = InfluentialCommunityEngine.build(
            two_cliques_bridge, config=EngineConfig(max_radius=2)
        )
        summary = engine.describe()
        assert summary["graph"]["num_vertices"] == 10
        assert summary["index"]["max_radius"] == 2
        assert summary["config"]["r_max"] == 2

    def test_build_validates_graph(self, triangle_graph):
        triangle_graph._prob[("a", "b")] = 2.0  # corrupt on purpose
        with pytest.raises(GraphError):
            InfluentialCommunityEngine.build(triangle_graph)

    def test_build_without_validation_skips_check(self, triangle_graph):
        triangle_graph._prob[("a", "b")] = 0.9
        engine = InfluentialCommunityEngine.build(triangle_graph, validate=False)
        assert engine.graph is triangle_graph

    def test_custom_config_respected(self, two_cliques_bridge):
        config = EngineConfig(max_radius=1, thresholds=(0.2,), fanout=3, leaf_capacity=2)
        engine = InfluentialCommunityEngine.build(two_cliques_bridge, config=config)
        assert engine.index.max_radius == 1
        assert engine.index.thresholds == (0.2,)
        assert engine.index.leaf_capacity == 2


class TestQueries:
    def test_topl_query(self, two_cliques_bridge):
        engine = InfluentialCommunityEngine.build(
            two_cliques_bridge, config=EngineConfig(max_radius=2)
        )
        result = engine.topl(make_topl_query({"movies", "books"}, k=4, radius=1, theta=0.1, top_l=2))
        assert len(result) == 2

    def test_dtopl_query(self, two_cliques_bridge):
        engine = InfluentialCommunityEngine.build(
            two_cliques_bridge, config=EngineConfig(max_radius=2)
        )
        query = make_dtopl_query(
            {"movies", "books"}, k=4, radius=1, theta=0.1, top_l=2, candidate_factor=2
        )
        result = engine.dtopl(query)
        assert len(result) == 2
        assert result.diversity_score > 0

    def test_kcore_helpers(self, two_cliques_bridge):
        engine = InfluentialCommunityEngine.build(
            two_cliques_bridge, config=EngineConfig(max_radius=2)
        )
        topl = engine.topl(make_topl_query({"movies"}, k=4, radius=1, theta=0.1, top_l=1)).best
        comparison = compare_with_kcore(
            engine.graph, topl, k=3, theta=topl.influenced.threshold
        )
        assert comparison["topl_icde"]["score"] > 0
        community = kcore_community(engine.graph, 0, k=3, theta=0.1)
        assert community is not None
        assert community.vertices == frozenset(range(4))


class TestPersistence:
    def test_save_and_reload_round_trip(self, tmp_path, two_cliques_bridge):
        engine = InfluentialCommunityEngine.build(
            two_cliques_bridge, config=EngineConfig(max_radius=2)
        )
        path = tmp_path / "engine.repro-store"
        engine.checkpoint_store(path)
        reloaded = InfluentialCommunityEngine.from_store(path)
        query = make_topl_query({"movies", "books"}, k=4, radius=1, theta=0.1, top_l=2)
        original = engine.topl(query)
        assert original.communities
        assert reloaded.topl(query).communities == original.communities
        assert reloaded.config.max_radius == engine.config.max_radius

    def test_reloaded_config_derived_from_index(self, tmp_path, two_cliques_bridge):
        engine = InfluentialCommunityEngine.build(
            two_cliques_bridge,
            config=EngineConfig(max_radius=1, thresholds=(0.15,), fanout=3, leaf_capacity=2),
        )
        path = tmp_path / "engine.repro-store"
        engine.checkpoint_store(path)
        reloaded = InfluentialCommunityEngine.from_store(path)
        assert reloaded.config.thresholds == (0.15,)
        assert reloaded.config.fanout == 3
        assert reloaded.config.leaf_capacity == 2
