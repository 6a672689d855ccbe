"""Growth writes extend the tree on its right spine, in O(height) per write.

``patch_tree_index`` keeps its vertex -> leaf and node -> parent maps across
batches and hangs new leaves on the right spine, so however many vertices a
session receives, no internal node grows past ``fanout``, a one-group growth
batch recombines at most two leaf-to-root paths, and the full-tree walk that
builds the maps runs once for the index's life.
"""

from __future__ import annotations

import random

import pytest

import repro.index.patch as patch_module
from repro.core.config import EngineConfig
from repro.core.engine import InfluentialCommunityEngine
from repro.dynamic.updates import EdgeUpdate, random_update_batch
from repro.graph.generators import planted_community_graph
from repro.graph.social_network import SocialNetwork

from tests.index.test_patch_invariant import _assert_aggregates_exact

BACKENDS = ("reference", "fast")
KEYWORDS = ("movies", "books", "sports", "travel", "food", "music")
GROWTH_BATCHES = 150
FANOUT = 3


def _nodes(index) -> list:
    nodes, stack = [], [index.root]
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack.extend(node.children)
    return nodes


def _map_ids(maps):
    return (
        id(maps.root),
        {vertex: id(leaf) for vertex, leaf in maps.leaf_of.items()},
        {key: id(parent) for key, parent in maps.parent_of.items()},
    )


def _growth_batch(rng: random.Random, first: int) -> list:
    a, b, c = first, first + 1, first + 2
    return [
        EdgeUpdate.insert(
            a, b, rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9),
            keywords_u=rng.sample(KEYWORDS, 2), keywords_v=rng.sample(KEYWORDS, 2),
        ),
        EdgeUpdate.insert(b, c, rng.uniform(0.1, 0.9), keywords_v=rng.sample(KEYWORDS, 2)),
        EdgeUpdate.insert(a, c, rng.uniform(0.1, 0.9)),
    ]


@pytest.mark.parametrize("backend", BACKENDS)
def test_growth_keeps_the_tree_exact_and_bounded(backend, monkeypatch):
    walks = []
    collect = patch_module._collect_structure

    def counting(index):
        walks.append(index)
        return collect(index)

    monkeypatch.setattr(patch_module, "_collect_structure", counting)

    graph = planted_community_graph(
        [8, 8, 6], intra_probability=0.5, inter_probability=0.05, rng=3
    )
    rng = random.Random(3)
    for vertex in graph.vertices():
        graph.set_keywords(vertex, rng.sample(KEYWORDS, 2))
    engine = InfluentialCommunityEngine.build(
        graph,
        config=EngineConfig(backend=backend, max_radius=2, fanout=FANOUT, leaf_capacity=4),
        validate=False,
    )
    index = engine.index
    base = sorted(graph.vertices())

    def check() -> None:
        _assert_aggregates_exact(index)
        nodes = _nodes(index)
        assert all(len(node.children) <= FANOUT for node in nodes)
        assert index.num_nodes == len(nodes)
        assert len({node.node_id for node in nodes}) == len(nodes)
        assert _map_ids(index._patch_maps) == _map_ids(collect(index))

    for step in range(GROWTH_BATCHES):
        report = engine.apply_updates(_growth_batch(rng, 1000 + 3 * step), damage_threshold=1.0)
        assert report.mode == "incremental" and report.new_vertices == 3
        assert report.patched_nodes <= 2 * (index.height() + 1)
        check()
        churn = random_update_batch(
            engine.graph, size=3, rng=rng, focus=rng.choice(base), focus_radius=1,
        )
        assert engine.apply_updates(churn, damage_threshold=1.0).mode in ("incremental", "noop")
        check()

    assert engine.index is index
    assert walks == [index]
    assert index.num_vertices() == len(base) + 3 * GROWTH_BATCHES
    assert index.height() >= 4


@pytest.mark.parametrize("backend", BACKENDS)
def test_an_empty_index_grows_from_one_leaf(backend):
    engine = InfluentialCommunityEngine.build(
        SocialNetwork(),
        config=EngineConfig(backend=backend, max_radius=2, fanout=2, leaf_capacity=2),
        validate=False,
    )
    assert engine.index.root is None
    report = engine.apply_updates(
        [EdgeUpdate.insert(v, v + 1, 0.5) for v in range(7)], damage_threshold=1.0
    )
    assert report.mode == "incremental"
    index = engine.index
    _assert_aggregates_exact(index)
    nodes = _nodes(index)
    assert [len(node.vertices) for node in nodes if node.is_leaf] == [2, 2, 2, 2]
    assert all(len(node.children) <= 2 for node in nodes)
    assert index.num_nodes == len(nodes) == 7 and index.height() == 2
