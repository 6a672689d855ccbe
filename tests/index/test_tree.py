"""Unit tests for tree-index construction."""

import random

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import InfluentialCommunityEngine
from repro.dynamic.updates import EdgeUpdate
from repro.exceptions import GraphError, IndexStateError
from repro.graph.generators import planted_community_graph
from repro.graph.social_network import SocialNetwork
from repro.graph.traversal import bfs_distances
from repro.index.node import EntryAggregates
from repro.index.precompute import precompute
from repro.index.tree import build_tree_index


class TestBuildTreeIndex:
    def test_all_vertices_stored(self, two_cliques_bridge):
        index = build_tree_index(two_cliques_bridge, max_radius=2)
        assert index.num_vertices() == two_cliques_bridge.num_vertices()
        assert set(index.root.subtree_vertices()) == set(two_cliques_bridge.vertices())

    def test_leaf_capacity_respected(self, small_world_graph):
        index = build_tree_index(small_world_graph, max_radius=1, leaf_capacity=4, fanout=3)

        def check(node):
            if node.is_leaf:
                assert 1 <= len(node.vertices) <= 4
            else:
                assert 2 <= len(node.children) <= 3 or node is index.root
                for child in node.children:
                    check(child)

        check(index.root)

    def test_height_grows_with_smaller_fanout(self, small_world_graph):
        wide = build_tree_index(small_world_graph, max_radius=1, leaf_capacity=32, fanout=16)
        narrow = build_tree_index(small_world_graph, max_radius=1, leaf_capacity=4, fanout=2)
        assert narrow.height() >= wide.height()

    def test_empty_graph_gives_empty_index(self):
        graph = SocialNetwork()
        index = build_tree_index(graph, max_radius=1)
        assert index.root is None
        assert index.num_vertices() == 0
        assert index.height() == -1

    def test_single_vertex_graph(self):
        graph = SocialNetwork()
        graph.add_vertex(1, {"movies"})
        index = build_tree_index(graph, max_radius=1)
        assert index.root is not None
        assert index.root.is_leaf
        assert index.num_vertices() == 1

    def test_invalid_parameters_rejected(self, triangle_graph):
        with pytest.raises(IndexStateError):
            build_tree_index(triangle_graph, fanout=1)
        with pytest.raises(IndexStateError):
            build_tree_index(triangle_graph, leaf_capacity=0)

    def test_reuses_precomputed_data(self, two_cliques_bridge):
        data = precompute(two_cliques_bridge, max_radius=2, thresholds=(0.1,))
        index = build_tree_index(two_cliques_bridge, precomputed=data)
        assert index.precomputed is data
        assert index.max_radius == 2
        assert index.thresholds == (0.1,)

    def test_vertex_aggregates_lookup(self, two_cliques_bridge):
        index = build_tree_index(two_cliques_bridge, max_radius=2)
        aggregates = index.vertex_aggregates(0)
        assert aggregates.vertex == 0
        with pytest.raises(IndexStateError):
            index.vertex_aggregates(999)

    def test_validate_radius(self, two_cliques_bridge):
        index = build_tree_index(two_cliques_bridge, max_radius=2)
        index.validate_radius(2)
        with pytest.raises(Exception):
            index.validate_radius(3)

    def test_describe(self, two_cliques_bridge):
        index = build_tree_index(two_cliques_bridge, max_radius=2)
        summary = index.describe()
        assert summary["num_vertices"] == 10
        assert summary["max_radius"] == 2
        assert summary["num_nodes"] == index.root.count_nodes()


class TestAggregateSoundness:
    """Parent aggregates must dominate every child (the pruning rules rely on it)."""

    def _check_node(self, node, radius):
        if node.is_leaf:
            return
        for child in node.children:
            parent = node.aggregates.per_radius[radius]
            child_aggregates = child.aggregates.per_radius[radius]
            assert parent.bitvector.contains_all(child_aggregates.bitvector)
            assert parent.support_upper_bound >= child_aggregates.support_upper_bound
            parent_scores = dict(parent.score_bounds)
            for theta, sigma in child_aggregates.score_bounds:
                assert parent_scores[theta] >= sigma - 1e-9
            self._check_node(child, radius)

    def test_aggregates_dominate_children(self, small_world_graph):
        index = build_tree_index(small_world_graph, max_radius=2, leaf_capacity=8, fanout=4)
        for radius in (1, 2):
            self._check_node(index.root, radius)

    def test_root_aggregates_dominate_every_vertex(self, two_cliques_bridge):
        index = build_tree_index(two_cliques_bridge, max_radius=2)
        root = index.root.aggregates.per_radius[2]
        for vertex in two_cliques_bridge.vertices():
            record = index.vertex_aggregates(vertex).for_radius(2)
            assert root.bitvector.contains_all(record.bitvector)
            assert root.support_upper_bound >= record.support_upper_bound

    def test_combine_rejects_empty(self):
        with pytest.raises(ValueError):
            EntryAggregates.combine([])
        with pytest.raises(ValueError):
            EntryAggregates.from_records([])

    def test_from_records_is_or_max_max_of_the_records(self, small_world_graph):
        data = precompute(small_world_graph, max_radius=2)
        records = list(data.vertex_aggregates.values())
        for start in range(0, len(records), 7):
            chunk = records[start:start + 7]
            combined = EntryAggregates.from_records(chunk)
            assert combined == EntryAggregates.combine(
                [EntryAggregates.from_vertex(record) for record in chunk]
            )
            assert combined.trussness_bound == max(r.center_trussness for r in chunk)
            for radius in (1, 2):
                parts = [record.per_radius[radius] for record in chunk]
                merged = combined.per_radius[radius]
                bitvector = parts[0].bitvector
                for part in parts:
                    bitvector = bitvector | part.bitvector
                assert merged.bitvector == bitvector
                assert merged.support_upper_bound == max(
                    part.support_upper_bound for part in parts
                )
                for position, (theta, sigma) in enumerate(merged.score_bounds):
                    assert theta == data.thresholds[position]
                    assert sigma == max(
                        [0.0] + [dict(part.score_bounds)[theta] for part in parts]
                    )

    def test_combine_rejects_mismatched_bit_widths(self, two_cliques_bridge):
        narrow = EntryAggregates.from_vertex(
            precompute(two_cliques_bridge, max_radius=1, num_bits=32).aggregates_of(0)
        )
        wide = EntryAggregates.from_vertex(
            precompute(two_cliques_bridge, max_radius=1, num_bits=64).aggregates_of(0)
        )
        with pytest.raises(GraphError, match="mismatched widths: 32 vs 64"):
            EntryAggregates.combine([narrow, wide])


def _leaves(node):
    """The leaves under ``node``, left to right."""
    if node.is_leaf:
        return [node]
    return [leaf for child in node.children for leaf in _leaves(child)]


class TestLocalityPacking:
    """Leaves are packed breadth-first over the graph, from the ranking order."""

    def test_packing_ignores_edge_insertion_order(self, small_world_graph):
        edges = [
            (u, v, small_world_graph.probability(u, v), small_world_graph.probability(v, u))
            for u, v in small_world_graph.edges()
        ]
        random.Random(7).shuffle(edges)
        shuffled = SocialNetwork()
        for vertex in small_world_graph.vertices():
            shuffled.add_vertex(vertex, small_world_graph.keywords(vertex))
        for u, v, p_uv, p_vu in edges:
            shuffled.add_edge(v, u, p_vu, p_uv)
        original = build_tree_index(small_world_graph, max_radius=2, leaf_capacity=8, fanout=4)
        rebuilt = build_tree_index(shuffled, max_radius=2, leaf_capacity=8, fanout=4)
        assert [leaf.vertices for leaf in _leaves(rebuilt.root)] == [
            leaf.vertices for leaf in _leaves(original.root)
        ]

    def test_every_vertex_in_exactly_one_leaf(self, small_world_graph):
        index = build_tree_index(small_world_graph, max_radius=1, leaf_capacity=6, fanout=3)
        packed = [vertex for leaf in _leaves(index.root) for vertex in leaf.vertices]
        assert sorted(packed) == sorted(small_world_graph.vertices())
        assert all(1 <= len(leaf.vertices) <= 6 for leaf in _leaves(index.root))

    def test_local_batch_dirties_few_leaves(self, monkeypatch):
        """A 10-edit batch inside one radius-2 ball touches few of 125 leaves."""
        import repro.core.engine as engine_module

        graph = planted_community_graph(
            [50] * 40, intra_probability=0.1, inter_probability=0.00005,
            weight_range=(0.05, 0.3), rng=5,
        )
        engine = InfluentialCommunityEngine.build(
            graph, config=EngineConfig(backend="fast", max_radius=2), validate=False
        )
        leaves = _leaves(engine.index.root)
        assert len(leaves) == 125
        leaf_of = {vertex: position for position, leaf in enumerate(leaves)
                   for vertex in leaf.vertices}

        rng = random.Random(5)
        ball = []
        while len(ball) < 8:
            ball = sorted(bfs_distances(graph, rng.randrange(2000), max_depth=2))
        existing = [(u, v) for u in ball for v in ball if u < v and graph.has_edge(u, v)]
        missing = [(u, v) for u in ball for v in ball if u < v and not graph.has_edge(u, v)]
        edits = [EdgeUpdate.delete(u, v) for u, v in rng.sample(existing, 5)]
        edits += [EdgeUpdate.insert(u, v, 0.2) for u, v in rng.sample(missing, 5)]

        touched = []
        original = engine_module.patch_tree_index

        def recording(index, changed_vertices=(), added_vertices=()):
            touched.extend(changed_vertices)
            return original(index, changed_vertices, added_vertices)

        monkeypatch.setattr(engine_module, "patch_tree_index", recording)
        report = engine.apply_updates(edits, damage_threshold=1.0)
        assert report.mode == "incremental" and touched
        assert len({leaf_of[vertex] for vertex in touched}) <= len(leaves) // 4
