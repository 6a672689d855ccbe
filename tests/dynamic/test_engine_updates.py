"""Tests for ``InfluentialCommunityEngine.apply_updates`` (modes, epoch, report)."""

from __future__ import annotations

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import InfluentialCommunityEngine
from repro.dynamic.updates import EdgeUpdate, UpdateBatch
from repro.exceptions import DynamicUpdateError, QueryParameterError
from repro.query.params import make_topl_query

from tests.dynamic.strategies_dynamic import dynamic_config

_CONFIG = dynamic_config(
    max_radius=2, thresholds=(0.1, 0.2, 0.3), fanout=3, leaf_capacity=4
)


@pytest.fixture
def bridge_engine(two_cliques_bridge):
    return InfluentialCommunityEngine.build(
        two_cliques_bridge, config=_CONFIG, validate=False
    )


class TestApplyUpdates:
    def test_incremental_mode_and_epoch(self, bridge_engine):
        report = bridge_engine.apply_updates(
            [EdgeUpdate.delete(4, 5)], damage_threshold=1.0
        )
        assert report.mode == "incremental"
        assert report.deletions == 1 and report.insertions == 0
        assert report.epoch == 1 == bridge_engine.epoch
        assert 0 < report.affected_vertices <= report.total_vertices
        assert report.elapsed_seconds >= 0.0

    def test_accepts_plain_edit_iterables(self, bridge_engine):
        report = bridge_engine.apply_updates(
            (EdgeUpdate.insert(0, 9, 0.4),), damage_threshold=1.0
        )
        assert report.insertions == 1
        assert bridge_engine.graph.has_edge(0, 9)

    def test_noop_batch_keeps_epoch(self, bridge_engine):
        report = bridge_engine.apply_updates(UpdateBatch())
        assert report.mode == "noop"
        assert report.epoch == 0 == bridge_engine.epoch

    def test_invalid_batch_leaves_engine_untouched(self, bridge_engine):
        edges_before = bridge_engine.graph.num_edges()
        with pytest.raises(DynamicUpdateError):
            bridge_engine.apply_updates(
                [EdgeUpdate.delete(4, 5), EdgeUpdate.delete(4, 5)]
            )
        assert bridge_engine.graph.num_edges() == edges_before
        assert bridge_engine.epoch == 0

    def test_damage_threshold_forces_rebuild(self, bridge_engine):
        old_index = bridge_engine.index
        report = bridge_engine.apply_updates(
            [EdgeUpdate.delete(4, 5)], damage_threshold=0.01
        )
        assert report.mode == "rebuild"
        assert bridge_engine.index is not old_index
        assert bridge_engine.epoch == 1

    def test_rebuild_flag(self, bridge_engine):
        report = bridge_engine.apply_updates(
            [EdgeUpdate.insert(1, 8, 0.3), EdgeUpdate.insert(0, 77, 0.2)],
            damage_threshold=1.0,
            rebuild=True,
        )
        assert report.mode == "rebuild"
        assert report.new_vertices == 1
        assert report.damage_ratio == 1.0
        assert bridge_engine.graph.has_edge(1, 8)
        assert bridge_engine.index.num_vertices() == bridge_engine.graph.num_vertices()

    def test_out_of_range_damage_threshold_rejected(self, bridge_engine):
        from repro.exceptions import QueryParameterError

        for bad in (0.0, -1.0, 1.5):
            with pytest.raises(QueryParameterError):
                bridge_engine.apply_updates(
                    [EdgeUpdate.delete(4, 5)], damage_threshold=bad
                )
        assert bridge_engine.graph.has_edge(4, 5)  # nothing applied
        assert bridge_engine.epoch == 0

    def test_new_vertex_becomes_queryable(self, bridge_engine):
        before = bridge_engine.index.num_vertices()
        report = bridge_engine.apply_updates(
            [
                EdgeUpdate.insert(0, 100, 0.9, keywords_v={"movies"}),
                EdgeUpdate.insert(1, 100, 0.9),
                EdgeUpdate.insert(2, 100, 0.9),
                EdgeUpdate.insert(3, 100, 0.9),
            ],
            damage_threshold=1.0,
        )
        assert report.mode == "incremental"
        assert report.new_vertices == 1
        assert bridge_engine.index.num_vertices() == before + 1
        result = bridge_engine.topl(
            make_topl_query({"movies"}, k=4, radius=1, theta=0.2, top_l=1)
        )
        assert len(result) == 1
        assert 100 in result[0].vertices

    def test_sequential_batches_compose(self, bridge_engine):
        bridge_engine.apply_updates([EdgeUpdate.delete(4, 5)], damage_threshold=1.0)
        report = bridge_engine.apply_updates(
            [EdgeUpdate.insert(4, 5, 0.6)], damage_threshold=1.0
        )
        assert report.epoch == 2
        assert bridge_engine.graph.has_edge(4, 5)

    def test_report_as_dict_round_trips(self, bridge_engine):
        report = bridge_engine.apply_updates(
            [EdgeUpdate.delete(4, 5)], damage_threshold=1.0
        )
        payload = report.as_dict()
        assert payload["mode"] == report.mode
        assert payload["applied_mode"] == report.applied_mode
        assert payload["epoch"] == 1
        assert set(payload) >= {
            "affected_vertices", "damage_ratio", "damage_threshold",
            "support_changed_edges", "truss_changed_edges",
            "overlay_dirt_ratio", "compacted", "patched_nodes",
        }
        assert payload["patched_nodes"] == report.patched_nodes > 0
        assert bridge_engine.apply_updates(UpdateBatch()).as_dict()["patched_nodes"] == 0
        rebuilt = bridge_engine.apply_updates([EdgeUpdate.insert(4, 5, 0.6)], rebuild=True)
        assert rebuilt.as_dict()["patched_nodes"] == 0

    def test_config_damage_threshold_validation(self):
        with pytest.raises(QueryParameterError):
            EngineConfig(damage_threshold=0.0)
        with pytest.raises(QueryParameterError):
            EngineConfig(damage_threshold=1.5)
        assert "damage_threshold" in EngineConfig().describe()

    def test_from_store_supports_updates(self, two_cliques_bridge, tmp_path):
        engine = InfluentialCommunityEngine.build(
            two_cliques_bridge, config=_CONFIG, validate=False
        )
        path = tmp_path / "engine.repro-store"
        engine.checkpoint_store(path)
        loaded = InfluentialCommunityEngine.from_store(path)
        report = loaded.apply_updates([EdgeUpdate.delete(4, 5)], damage_threshold=1.0)
        assert report.mode == "incremental"
        assert not loaded.graph.has_edge(4, 5)


class TestOverlayCompaction:
    """Fast-backend snapshot lifecycle: patch in place, compact past the knob."""

    @pytest.fixture
    def fast_engine(self, two_cliques_bridge):
        config = dynamic_config(
            max_radius=2, thresholds=(0.1, 0.2, 0.3), fanout=3, leaf_capacity=4,
            backend="fast", compact_dirt_ratio=0.2,
        )
        return InfluentialCommunityEngine.build(
            two_cliques_bridge, config=config, validate=False
        )

    def test_patch_then_compact_then_patch_again(self, fast_engine):
        from repro.fastgraph.csr import CSRGraph
        from repro.fastgraph.delta import DeltaCSR

        first = fast_engine.apply_updates(
            [EdgeUpdate.delete(4, 5)], damage_threshold=1.0
        )
        assert first.applied_mode == "patch"
        assert 0.0 < first.overlay_dirt_ratio <= 0.2
        assert isinstance(fast_engine._frozen, DeltaCSR)

        second = fast_engine.apply_updates(
            [
                EdgeUpdate.insert(4, 5, 0.6),
                EdgeUpdate.insert(0, 9, 0.4),
                EdgeUpdate.insert(1, 8, 0.4),
            ],
            damage_threshold=1.0,
        )
        assert second.applied_mode == "compact"
        assert second.compacted and second.overlay_dirt_ratio > 0.2
        assert isinstance(fast_engine._frozen, CSRGraph)
        assert fast_engine.overlay_dirt_ratio() == 0.0

        third = fast_engine.apply_updates(
            [EdgeUpdate.delete(0, 9)], damage_threshold=1.0
        )
        assert third.applied_mode == "patch"
        assert isinstance(fast_engine._frozen, DeltaCSR)

        # The surviving state is still exact: answers equal a fresh build.
        fresh = InfluentialCommunityEngine.build(
            fast_engine.graph.copy(), config=_CONFIG, validate=False
        )
        query = make_topl_query({"movies"}, k=3, radius=2, theta=0.1, top_l=2)
        ours = tuple((c.vertices, c.score) for c in fast_engine.topl(query))
        theirs = tuple((c.vertices, c.score) for c in fresh.topl(query))
        assert ours == theirs

    def test_edit_log_resets_on_compaction(self, fast_engine):
        fast_engine.apply_updates([EdgeUpdate.delete(4, 5)], damage_threshold=1.0)
        report = fast_engine.apply_updates(
            [
                EdgeUpdate.insert(4, 5, 0.6),
                EdgeUpdate.insert(0, 9, 0.4),
                EdgeUpdate.insert(1, 8, 0.4),
            ],
            damage_threshold=1.0,
        )
        assert report.compacted


def _contents(graph) -> tuple:
    """Vertices with keywords, and every arc with its probability."""
    return (
        {vertex: graph.keywords(vertex) for vertex in graph.vertices()},
        {(u, v): graph.probability(u, v) for u in graph.vertices() for v in graph.neighbors(u)},
    )


def test_fast_graph_views_show_their_epoch_or_raise(two_cliques_bridge):
    """A fast engine's ``graph`` is a view of one epoch; updates never mutate it.

    A view built before a later update keeps the epoch it showed; one first
    read after a later update raises instead of showing that later epoch.
    """
    from repro.exceptions import StaleGraphViewError
    from repro.graph.core import AdjacencyCore
    from repro.graph.social_network import LazySocialNetwork

    config = dynamic_config(max_radius=2, thresholds=(0.1, 0.2, 0.3), backend="fast")
    built_with = two_cliques_bridge.copy()
    engine = InfluentialCommunityEngine.build(built_with, config=config, validate=False)
    assert engine.graph is built_with
    reference = two_cliques_bridge.copy()
    batches = [
        UpdateBatch([EdgeUpdate.delete(4, 5)]),
        UpdateBatch([EdgeUpdate.insert(0, 90, 0.4, keywords_v={"movies"})]),
        UpdateBatch([EdgeUpdate.insert(90, 1, 0.3)]),
    ]

    engine.apply_updates(batches[0], damage_threshold=1.0)
    batches[0].apply_to(AdjacencyCore(reference))
    built = engine.graph
    assert type(built) is LazySocialNetwork
    assert built is engine.graph  # one view per epoch
    assert _contents(built) == _contents(reference)  # reading builds it: epoch 1
    # The build's graph never changes.
    assert _contents(built_with) == _contents(two_cliques_bridge)

    engine.apply_updates(batches[1], damage_threshold=1.0)
    unbuilt = engine.graph
    assert unbuilt is not built and type(unbuilt) is LazySocialNetwork
    engine.apply_updates(batches[2], damage_threshold=1.0)
    with pytest.raises(StaleGraphViewError, match="epoch 2"):
        unbuilt.num_vertices()
    assert _contents(built) == _contents(reference)  # still epoch 1
    assert not built.has_vertex(90)

    for batch in batches[1:]:
        batch.apply_to(AdjacencyCore(reference))
    assert _contents(engine.graph) == _contents(reference)
    assert engine.graph_summary() == {
        "name": reference.name,
        "num_vertices": reference.num_vertices(),
        "num_edges": reference.num_edges(),
    }


@pytest.mark.parametrize("backend", ("reference", "fast"))
def test_reverse_set_survives_a_rounding_straddle(backend):
    """Incremental records stay exact when a path product sits on theta_min.

    The forward product of the chain 0 -> 1 -> 2 -> 3 is 0.96 * 0.86 * 0.95
    = 0.78432 exactly at the threshold, while the reverse influence walk
    multiplies the same factors endpoint-first and rounds to
    0.7843199999999999.  Without slack in that walk, vertex 0 escapes the
    reverse set of the (3, 4) insertion, so its row and the record of
    centre 5 (whose radius-1 ball holds 0) stay stale.
    """
    from repro.graph.social_network import SocialNetwork
    from repro.index.precompute import precompute

    graph = SocialNetwork()
    for vertex in range(7):
        graph.add_vertex(vertex, ["movies"])
    graph.add_edge(0, 1, 0.96, 0.1)
    graph.add_edge(1, 2, 0.86, 0.1)
    graph.add_edge(2, 3, 0.95, 0.1)
    graph.add_edge(5, 6, 0.5, 0.5)
    theta = 0.96 * 0.86 * 0.95
    assert theta == 0.78432 and 0.95 * 0.86 * 0.96 < theta
    config = EngineConfig(max_radius=1, thresholds=(theta,), backend=backend)
    engine = InfluentialCommunityEngine.build(graph, config=config, validate=False)
    for edit in (EdgeUpdate.insert(0, 5, 0.5), EdgeUpdate.insert(3, 4, 1.0, 0.5)):
        report = engine.apply_updates([edit], damage_threshold=1.0)
        assert report.mode == "incremental"
        fresh = precompute(
            engine.graph, max_radius=1, thresholds=(theta,), num_bits=config.num_bits
        )
        assert engine.index.precomputed.vertex_aggregates == fresh.vertex_aggregates


#: ``(backend, stage)`` pairs: every stage that runs after the batch is
#: applied to the graph; only the fast backend compacts an overlay.
_FAILING_STAGES = [
    (backend, stage)
    for backend in ("reference", "fast")
    for stage in ("affected", "refresh", "patch", "compact")
    if not (stage == "compact" and backend == "reference")
]


def _stage_target(engine, stage):
    """``(owner, attribute)`` of the callable that runs ``stage``."""
    import repro.core.engine as engine_module
    import repro.fastgraph.offline as offline_module

    if stage == "affected":
        return engine_module, "affected_centers"
    if stage == "patch":
        return engine_module, "patch_tree_index"
    if stage == "compact":
        return engine, "_compact_overlay"
    if engine.config.backend == "fast":
        return offline_module, "fast_refresh_records"
    return engine_module, "refresh_vertex_aggregates"


@pytest.mark.parametrize(("backend", "stage"), _FAILING_STAGES)
def test_failed_stage_rebuilds_and_reraises(planted_graph, monkeypatch, backend, stage):
    """An error after the graph has changed leaves a rebuilt engine, not a stale one."""
    from repro.index.precompute import precompute

    config = dynamic_config(
        backend=backend, max_radius=2, thresholds=(0.1, 0.2, 0.3), fanout=3,
        leaf_capacity=4, compact_dirt_ratio=0.01,
    )
    engine = InfluentialCommunityEngine.build(planted_graph, config=config, validate=False)
    engine.apply_updates([EdgeUpdate.delete(0, 1)], damage_threshold=1.0)

    owner, name = _stage_target(engine, stage)
    original = getattr(owner, name)
    calls = []

    def fail_once(*args, **kwargs):
        calls.append(name)
        if len(calls) == 1:
            raise RuntimeError(f"injected failure in {name}")
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, fail_once)
    epoch = engine.epoch
    with pytest.raises(RuntimeError, match="injected failure"):
        engine.apply_updates(
            [EdgeUpdate.insert(0, 1, 0.7), EdgeUpdate.delete(2, 3)], damage_threshold=1.0
        )
    # The update enters the stage once.  Without numpy, the rebuild after the
    # failure runs the same record kernel once more, over every centre.
    import repro.fastgraph.offline as offline_module

    rebuild_runs_stage = (
        backend == "fast" and stage == "refresh" and not offline_module.NUMPY_AVAILABLE
    )
    assert calls == [name] * (2 if rebuild_runs_stage else 1)
    assert engine.epoch == epoch + 1
    assert not engine.graph.has_edge(2, 3)
    fresh = precompute(
        engine.graph, max_radius=2, thresholds=(0.1, 0.2, 0.3), num_bits=config.num_bits
    )
    assert engine.index.precomputed.vertex_aggregates == fresh.vertex_aggregates

    rebuilt = InfluentialCommunityEngine.build(engine.graph.copy(), config=config, validate=False)
    follow_up = [EdgeUpdate.insert(2, 3, 0.5), EdgeUpdate.delete(16, 17)]
    ours = engine.apply_updates(follow_up, damage_threshold=1.0).as_dict()
    theirs = rebuilt.apply_updates(follow_up, damage_threshold=1.0).as_dict()
    for report in (ours, theirs):
        del report["elapsed_seconds"], report["epoch"]
    assert ours == theirs
    assert engine.index.precomputed.vertex_aggregates == rebuilt.index.precomputed.vertex_aggregates
    query = make_topl_query({"movies"}, k=3, radius=2, theta=0.1, top_l=3)
    answer = [(c.center, c.vertices, c.score) for c in engine.topl(query)]
    assert answer == [(c.center, c.vertices, c.score) for c in rebuilt.topl(query)]
    assert answer
