"""Patched tree indexes keep every node aggregate exact.

``patch_tree_index`` stops walking up a leaf-to-root path at the first node
whose recomputed aggregates are unchanged.  That is sound only if every
ancestor of a *changed* node is still recomputed, so after each patched batch
every node must equal the combination of the records (leaf) or the children
(internal node) below it — recomputed here from scratch, through the
single-vertex ``from_vertex`` + ``combine`` path rather than the patcher's own.
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import InfluentialCommunityEngine
from repro.dynamic.updates import EdgeUpdate, random_update_batch
from repro.graph.generators import planted_community_graph
from repro.index.node import EntryAggregates
from repro.index.patch import patch_tree_index

from tests.conftest import build_two_cliques_bridge

BACKENDS = ("reference", "fast")
KEYWORDS = ("movies", "books", "sports", "travel", "food", "music")


def _assert_aggregates_exact(index) -> None:
    records = index.precomputed.vertex_aggregates
    covered = []
    stack = [index.root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            expected = EntryAggregates.combine(
                [EntryAggregates.from_vertex(records[vertex]) for vertex in node.vertices]
            )
            covered.extend(node.vertices)
        else:
            expected = EntryAggregates.combine([child.aggregates for child in node.children])
            stack.extend(node.children)
        assert node.aggregates == expected, node.node_id
    assert sorted(covered, key=repr) == sorted(records, key=repr)


def _engine(graph, backend: str, **config) -> InfluentialCommunityEngine:
    return InfluentialCommunityEngine.build(
        graph,
        config=EngineConfig(backend=backend, max_radius=2, **config),
        validate=False,
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_leaf_root_promotion_then_growth(backend):
    # Ten vertices in one full leaf: the first new vertex promotes the leaf
    # root to an internal node, later ones fill and add sibling leaves.
    engine = _engine(build_two_cliques_bridge(), backend, leaf_capacity=10, fanout=3)
    assert engine.index.root.is_leaf
    batches = [
        [EdgeUpdate.insert(4, 10, 0.7, keywords_v={"music"})],
        [EdgeUpdate.delete(4, 5), EdgeUpdate.insert(0, 6, 0.9)],
        [EdgeUpdate.insert(10, 11, 0.4), EdgeUpdate.insert(10, 1, 0.8)],
        [EdgeUpdate.insert(1, 2 + 10 * step, 0.5) for step in range(1, 12)],
        [EdgeUpdate.delete(0, 6), EdgeUpdate.insert(4, 5, 0.3)],
    ]
    for edits in batches:
        report = engine.apply_updates(edits, damage_threshold=1.0)
        assert report.mode == "incremental"
        _assert_aggregates_exact(engine.index)
    assert not engine.index.root.is_leaf


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", range(3))
def test_seeded_patched_batches(backend, seed):
    graph = planted_community_graph(
        [10, 10, 8, 8], intra_probability=0.5, inter_probability=0.04, rng=seed
    )
    rng = random.Random(seed)
    for vertex in graph.vertices():
        graph.set_keywords(vertex, rng.sample(KEYWORDS, 2))
    engine = _engine(graph, backend, leaf_capacity=2, fanout=2)
    _assert_aggregates_exact(engine.index)
    for _ in range(8):
        batch = random_update_batch(
            engine.graph,
            size=6,
            rng=rng,
            focus=rng.choice(sorted(engine.graph.vertices())),
            focus_radius=1,
            grow_probability=0.3,
            keyword_pool=KEYWORDS,
        )
        report = engine.apply_updates(batch, damage_threshold=1.0)
        assert report.mode in ("incremental", "noop")
        _assert_aggregates_exact(engine.index)


def test_unchanged_records_recompute_only_their_leaves(two_cliques_bridge):
    engine = _engine(two_cliques_bridge, "reference", leaf_capacity=2, fanout=2)
    index = engine.index
    vertices = [0, 5, 9]
    leaves = {
        id(node)
        for node in _leaves(index.root)
        if any(vertex in node.vertices for vertex in vertices)
    }
    assert patch_tree_index(index, changed_vertices=vertices) == len(leaves)
    _assert_aggregates_exact(index)


def _leaves(node):
    if node.is_leaf:
        return [node]
    return [leaf for child in node.children for leaf in _leaves(child)]
