"""Every score-bound list of an index is keyed by ``index.thresholds``, in order.

The index walk and the fast leaf scan read a record's or a node's bound for
an online ``theta`` as ``score_bounds[column][1]``, with the column found once
per query in ``index.thresholds``
(:func:`~repro.query.topl.threshold_column`).  That is the bound
``select_score_bound`` picks only if every record and every node aggregate,
for every radius, lists its ``(theta_z, sigma_z)`` pairs at exactly those
thetas in ascending order.  This module checks it after a fresh build (both
backends; on the fast one, both the numpy-free and the vector offline pass),
after patches that append vertices (including the empty placeholder leaf a
full tree grows), and on store-opened engines.
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import InfluentialCommunityEngine
from repro.dynamic.updates import EdgeUpdate, random_update_batch
from repro.fastgraph import offline
from repro.fastgraph.csr import NUMPY_AVAILABLE
from repro.graph.generators import planted_community_graph

from tests.conftest import build_two_cliques_bridge

THRESHOLDS = (0.05, 0.1, 0.2, 0.3)
KEYWORDS = ("movies", "books", "sports", "travel", "food", "music")
#: (backend, offline pass): "stdlib" patches ``offline.NUMPY_AVAILABLE`` to
#: ``False``, "vector" needs numpy; the reference backend has one pass.
BUILDS = (
    ("reference", "auto"),
    ("fast", "stdlib"),
    pytest.param(
        "fast",
        "vector",
        marks=pytest.mark.skipif(not NUMPY_AVAILABLE, reason="the vector tier needs numpy"),
    ),
)


def assert_threshold_columns(index) -> None:
    """Every record and node aggregate lists its bounds at ``index.thresholds``."""
    thresholds = tuple(index.thresholds)
    assert thresholds == tuple(sorted(set(thresholds)))
    radii = list(index.precomputed.supported_radii())

    def check(per_radius: dict, where) -> None:
        assert sorted(per_radius) == radii, where
        for radius in radii:
            thetas = tuple(theta for theta, _ in per_radius[radius].score_bounds)
            assert thetas == thresholds, (where, radius)

    for vertex, record in index.precomputed.vertex_aggregates.items():
        check(record.per_radius, vertex)
    nodes = 0
    stack = [index.root]
    while stack:
        node = stack.pop()
        stack.extend(node.children)
        check(node.aggregates.per_radius, ("node", node.node_id))
        nodes += 1
    assert nodes == index.num_nodes


def _config(backend: str, **overrides) -> EngineConfig:
    settings = dict(max_radius=3, thresholds=THRESHOLDS, leaf_capacity=2, fanout=2)
    settings.update(overrides)
    return EngineConfig(backend=backend, **settings)


def _planted(seed: int):
    graph = planted_community_graph(
        [9, 8, 8, 7], intra_probability=0.5, inter_probability=0.05, rng=seed
    )
    rng = random.Random(seed)
    for vertex in graph.vertices():
        graph.set_keywords(vertex, rng.sample(KEYWORDS, 2))
    return rng, graph


@pytest.mark.parametrize("backend,tier", BUILDS)
@pytest.mark.parametrize("seed", range(3))
def test_fresh_build(backend, tier, seed, monkeypatch):
    if tier == "stdlib":
        monkeypatch.setattr(offline, "NUMPY_AVAILABLE", False)
    _, graph = _planted(seed)
    engine = InfluentialCommunityEngine.build(graph, _config(backend), validate=False)
    assert_threshold_columns(engine.index)


@pytest.mark.parametrize("backend", ("reference", "fast"))
def test_patch_with_a_placeholder_leaf(backend):
    # Ten vertices in two full leaves: the new vertex gets a fresh leaf,
    # which starts from the empty placeholder aggregate.
    engine = InfluentialCommunityEngine.build(
        build_two_cliques_bridge(),
        _config(backend, leaf_capacity=5, fanout=4),
        validate=False,
    )
    assert all(len(leaf.vertices) == 5 for leaf in engine.index.root.children)
    report = engine.apply_updates(
        [EdgeUpdate.insert(4, 10, 0.7, keywords_v={"music"})], damage_threshold=1.0
    )
    assert report.mode == "incremental" and report.new_vertices == 1
    assert [len(leaf.vertices) for leaf in engine.index.root.children] == [5, 5, 1]
    assert_threshold_columns(engine.index)


@pytest.mark.parametrize("backend", ("reference", "fast"))
@pytest.mark.parametrize("seed", range(2))
def test_patched_batches_with_arrivals(backend, seed):
    rng, graph = _planted(seed)
    engine = InfluentialCommunityEngine.build(graph, _config(backend), validate=False)
    arrivals = 0
    for _ in range(6):
        batch = random_update_batch(
            engine.graph,
            size=6,
            rng=rng,
            focus=rng.choice(sorted(engine.graph.vertices())),
            focus_radius=1,
            grow_probability=0.5,
            keyword_pool=KEYWORDS,
        )
        report = engine.apply_updates(batch, damage_threshold=1.0)
        assert report.mode in ("incremental", "noop")
        arrivals += report.new_vertices
        assert_threshold_columns(engine.index)
    assert arrivals


@pytest.mark.parametrize("backend", ("reference", "fast"))
def test_store_opened_engine(backend, tmp_path):
    _, graph = _planted(4)
    built = InfluentialCommunityEngine.build(graph, _config("fast"), validate=False)
    path = tmp_path / "columns.repro-store"
    built.checkpoint_store(str(path))
    opened = InfluentialCommunityEngine.from_store(
        str(path), config_overrides={"backend": backend}
    )
    assert opened.config.backend == backend
    assert opened.index.thresholds == THRESHOLDS
    assert_threshold_columns(opened.index)
