"""A saved or checkpointed index reopens with the tree it had.

Dynamic updates patch the tree in place, so after a run of batches its leaves
no longer follow the packing a fresh build would choose.  Both persistence
paths (the JSON index document and the binary store) save the live tree's
layout and re-assemble it on open, so a reopened engine visits centres in the
same order as the live one and answers ``==`` it, ``center`` included.  The
assembler checks a layout as untrusted input.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import InfluentialCommunityEngine
from repro.dynamic.updates import EdgeUpdate, random_update_batch
from repro.exceptions import IndexStateError
from repro.graph.generators import planted_community_graph
from repro.index.tree import assemble_tree_index, build_tree_index, tree_layout
from repro.query.params import DTopLQuery, make_dtopl_query, make_topl_query

from tests.conftest import build_two_cliques_bridge
from tests.index.test_patch_invariant import _assert_aggregates_exact

KEYWORDS = ("movies", "books", "music", "sports", "travel")
BATCHES = 60


def _queries() -> list:
    queries = []
    for pair in itertools.combinations(KEYWORDS, 2):
        for k, radius in itertools.product((3, 4), (1, 2)):
            queries.append(make_topl_query(set(pair), k=k, radius=radius, theta=0.2, top_l=3))
            queries.append(make_dtopl_query(set(pair), k=k, radius=radius, theta=0.2, top_l=2))
    for keyword in KEYWORDS:
        queries.append(make_topl_query({keyword}, k=3, radius=2, theta=0.1, top_l=5))
    return queries


QUERIES = _queries()


def _answer(engine, query):
    if isinstance(query, DTopLQuery):
        return engine.dtopl(query).communities
    return engine.topl(query).communities


def _leaves(index) -> list:
    leaves = []
    stack = [index.root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            leaves.append(node.vertices)
        else:
            stack.extend(reversed(node.children))
    return leaves


@pytest.fixture(scope="module")
def churned_engine():
    """A fast engine after 60 localised 4-edit batches, all patched in place."""
    graph = planted_community_graph(
        [12] * 8, intra_probability=0.3, inter_probability=0.004, rng=5, name="churn"
    )
    rng = random.Random(5)
    for vertex in graph.vertices():
        graph.set_keywords(vertex, set(rng.sample(KEYWORDS, 2)))
    engine = InfluentialCommunityEngine.build(
        graph, config=EngineConfig(max_radius=2, backend="fast"), validate=False
    )
    vertices = list(graph.vertices())
    for step in range(BATCHES):
        batch = random_update_batch(
            engine.graph, 4, rng=step, focus=rng.choice(vertices), focus_radius=1,
            keyword_pool=KEYWORDS,
        )
        report = engine.apply_updates(batch, damage_threshold=1.0)
        assert report.mode != "rebuild"
    # The patched tree is no longer the one a fresh build packs, so a
    # reopen that re-packs would change the layout.
    rebuilt = build_tree_index(
        engine.graph, precomputed=engine.index.precomputed,
        fanout=engine.index.fanout, leaf_capacity=engine.index.leaf_capacity,
    )
    assert _leaves(rebuilt) != _leaves(engine.index)
    return engine


def _assert_same_engine(live, reopened) -> None:
    assert tree_layout(reopened.index) == tree_layout(live.index)
    assert _leaves(reopened.index) == _leaves(live.index)
    nonempty = 0
    for query in QUERIES:
        expected = _answer(live, query)
        nonempty += bool(expected)
        assert _answer(reopened, query) == expected, query
    assert nonempty >= len(QUERIES) // 2


def test_checkpoint_round_trip_after_churn(churned_engine, tmp_path):
    path = tmp_path / "churned.repro-store"
    churned_engine.checkpoint_store(path)
    reopened = InfluentialCommunityEngine.from_store(path)
    _assert_same_engine(churned_engine, reopened)


def test_json_round_trip_after_churn(churned_engine, tmp_path):
    path = tmp_path / "churned.json"
    churned_engine.save_index(path)
    reloaded = InfluentialCommunityEngine.from_saved_index(
        churned_engine.graph, path, config=churned_engine.config
    )
    _assert_same_engine(churned_engine, reloaded)


def test_root_wider_than_fanout_round_trips(tmp_path):
    """A root wider than ``fanout`` reopens as it was and grows on its spine.

    Patches no longer widen the root, but stores and index documents saved
    by earlier versions can hold one, with leaves at uneven depths.
    """
    config = EngineConfig(max_radius=2, fanout=2, leaf_capacity=2, backend="fast")
    engine = InfluentialCommunityEngine.build(
        build_two_cliques_bridge(), config=config, validate=False
    )
    vertices = [vertex for leaf in _leaves(engine.index) for vertex in leaf]
    # A root of four children: two leaves, an internal node over two
    # leaves, and a last leaf, all of them full.
    shape = [4, -2, -2, 2, -2, -2, -2]
    engine.index = assemble_tree_index(
        engine.index.precomputed, shape, vertices,
        fanout=config.fanout, leaf_capacity=config.leaf_capacity,
    )
    assert len(engine.index.root.children) > config.fanout

    engine.checkpoint_store(tmp_path / "wide.repro-store")
    reopened = InfluentialCommunityEngine.from_store(tmp_path / "wide.repro-store")
    assert tree_layout(reopened.index) == tree_layout(engine.index) == (shape, vertices)
    engine.save_index(tmp_path / "wide.json")
    reloaded = InfluentialCommunityEngine.from_saved_index(
        engine.graph, tmp_path / "wide.json", config=engine.config
    )
    assert tree_layout(reloaded.index) == tree_layout(engine.index)
    query = make_topl_query({"books"}, k=3, radius=2, theta=0.1, top_l=3)
    assert engine.topl(query).communities
    assert reopened.topl(query).communities == engine.topl(query).communities
    assert reloaded.topl(query).communities == engine.topl(query).communities

    # Every spine node is full, so the new leaf goes under a new root, one
    # level below it like the old last leaf; the wide root keeps its width.
    wide_root = reopened.index.root
    edits = [EdgeUpdate.insert(100, 101, 0.5), EdgeUpdate.insert(101, 102, 0.5)]
    assert reopened.apply_updates(edits, damage_threshold=1.0).mode == "incremental"
    root = reopened.index.root
    assert root.children[0] is wide_root and len(wide_root.children) == 4
    assert [len(node.children) for node in (root, root.children[1])] == [2, 2]
    assert [leaf.vertices for leaf in root.children[1].children] == [(100, 101), (102,)]
    assert reopened.index.num_nodes == len(tree_layout(reopened.index)[0]) == len(shape) + 4
    _assert_aggregates_exact(reopened.index)
    assert reopened.topl(query).communities == engine.topl(query).communities


def test_assembling_a_build_layout_gives_the_same_tree(two_cliques_bridge):
    index = build_tree_index(two_cliques_bridge, max_radius=2, fanout=2, leaf_capacity=3)
    shape, vertices = tree_layout(index)
    again = assemble_tree_index(index.precomputed, shape, vertices, fanout=2, leaf_capacity=3)
    assert tree_layout(again) == (shape, vertices)
    assert again.num_nodes == index.num_nodes == len(shape)
    assert again.describe() == index.describe()
    pairs = [(index.root, again.root)]
    while pairs:
        ours, theirs = pairs.pop()
        assert ours.aggregates == theirs.aggregates
        assert ours.vertices == theirs.vertices
        pairs.extend(zip(ours.children, theirs.children))


@pytest.mark.parametrize(
    "shape, vertices, message",
    [
        ([2, -3, -2], [0, 1, 2, 3], "records"),
        ([2, -3, -4], [0, 1, 2, 3, 4, 5], "needs 4 vertices"),
        ([2, -3], [0, 1, 2, 3, 4, 5], "ends before"),
        ([3, -3, -3], [0, 1, 2, 3, 4, 5], "ends before"),
        ([1, -6, -1], [0, 1, 2, 3, 4, 5], "past the root"),
        ([2, 0, -6], [0, 1, 2, 3, 4, 5], "empty"),
        ([-6], [0, 1, 2, 3, 4, 4], "listed twice"),
        ([-6], [0, 1, 2, 3, 4, 99], "unknown"),
        ([], [0, 1, 2, 3, 4, 5], "hold 0 of 6"),
    ],
)
def test_assembler_rejects_bad_layouts(shape, vertices, message):
    graph = planted_community_graph([6], intra_probability=1.0, rng=1)
    index = build_tree_index(graph, max_radius=1)
    with pytest.raises(IndexStateError, match=message):
        assemble_tree_index(index.precomputed, shape, vertices)
