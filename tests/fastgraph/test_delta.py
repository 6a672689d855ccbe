"""DeltaCSR overlay + GraphCore protocol unit tests.

The structural contract of the mutable fast core: tombstoned deletions,
append-only spill insertions, stable edge ids, dirt-ratio accounting,
``compact()`` bit-identical to re-freezing the mutated reference graph, and
the workspace sync protocol.  Every property is checked against a reference
``SocialNetwork`` mutated by the same edits through its own
``AdjacencyCore``.
"""

from __future__ import annotations

import random

import pytest

from repro.dynamic.updates import UpdateBatch, random_update_batch
from repro.fastgraph.csr import freeze
from repro.fastgraph.delta import DeltaCSR
from repro.fastgraph.kernels import CSRWorkspace, community_propagation_csr
from repro.graph.core import AdjacencyCore, GraphCore
from repro.graph.generators import erdos_renyi_graph
from repro.graph.keyword_assignment import assign_keywords
from repro.influence.propagation import community_propagation

_BUFFERS = ("indptr", "indices", "prob_out", "prob_in", "arc_edge", "edge_u", "edge_v")


def _seeded_graph(seed: int, num_vertices: int = 24):
    graph = erdos_renyi_graph(
        num_vertices, edge_probability=0.3, rng=seed,
        weight_range=(0.2, 0.9), name=f"delta-{seed}",
    )
    assign_keywords(graph, keywords_per_vertex=2, domain_size=8, rng=seed)
    return graph


#: The two mutable graph cores: a reference view and the CSR overlay.
_CORES = ("adjacency", "overlay")


def _core_of(kind: str, graph):
    """A mutable core of kind ``kind`` holding a copy of ``graph``."""
    return AdjacencyCore(graph.copy()) if kind == "adjacency" else DeltaCSR(freeze(graph))


def _mutated_pair(seed: int, edits: int = 12, kind: str = "overlay"):
    """(mutated reference graph, core mutated by the same edits, the script)."""
    graph = _seeded_graph(seed)
    core = _core_of(kind, graph)
    script = random_update_batch(
        graph, edits, rng=seed, insert_ratio=0.5, grow_probability=0.2,
        keyword_pool=("alpha", "beta"),
    )
    script.validate_against(core)
    script.apply_to(core)
    script.apply_to(AdjacencyCore(graph))
    return graph, core, script


def _row_of(graph, overlay, vertex_id):
    index_of = overlay.table.index_of
    return {
        overlay.table.id_of(head)
        for head in overlay.neighbor_row(index_of(vertex_id))
    } == set(graph.neighbors(vertex_id))


class TestOverlaySemantics:
    @pytest.mark.parametrize("seed", range(6))
    def test_rows_track_the_mutated_graph(self, seed):
        graph, overlay, _ = _mutated_pair(seed)
        assert overlay.num_vertices == graph.num_vertices()
        assert overlay.num_edges == graph.num_edges()
        for vertex_id in graph.vertices():
            assert _row_of(graph, overlay, vertex_id), vertex_id
            assert overlay.degree(overlay.table.index_of(vertex_id)) == graph.degree(vertex_id)

    @pytest.mark.parametrize("seed", range(6))
    def test_probabilities_match_the_graph(self, seed):
        graph, overlay, _ = _mutated_pair(seed)
        index_of = overlay.table.index_of
        for u_id, v_id in graph.edges():
            assert overlay.probability(index_of(u_id), index_of(v_id)) == graph.probability(u_id, v_id)
            assert overlay.probability(index_of(v_id), index_of(u_id)) == graph.probability(v_id, u_id)

    @pytest.mark.parametrize("seed", range(6))
    def test_arcs_agree_with_rows(self, seed):
        graph, overlay, _ = _mutated_pair(seed)
        for vertex in range(overlay.num_vertices):
            row = dict(overlay.neighbor_row(vertex))
            seen = {}
            for head, p_out, p_in, edge_id in overlay.arcs(vertex):
                seen[head] = edge_id
                assert overlay.probability(vertex, head) == p_out
                assert overlay.probability(head, vertex) == p_in
            assert seen == row

    def test_edge_ids_are_stable_and_never_reused(self):
        graph = _seeded_graph(3)
        overlay = DeltaCSR(freeze(graph))
        u_id, v_id = next(iter(graph.edges()))
        index_of = overlay.table.index_of
        u, v = index_of(u_id), index_of(v_id)
        surviving = {
            head: edge_id
            for head, edge_id in overlay.neighbor_row(u).items()
            if head != v
        }
        old_id = overlay.neighbor_row(u)[v]
        retired = overlay.note_delete(u_id, v_id)
        assert retired == old_id
        fresh = overlay.note_insert(u_id, v_id, 0.4, 0.6)
        assert fresh != old_id  # retired ids are never reused
        assert fresh >= overlay.base.num_edges
        for head, edge_id in surviving.items():
            assert overlay.neighbor_row(u)[head] == edge_id  # untouched ids stable
        assert overlay.probability(u, v) == 0.4
        assert overlay.probability(v, u) == 0.6

    def test_new_vertices_are_interned_with_keywords(self):
        graph = _seeded_graph(4)
        overlay = DeltaCSR(freeze(graph))
        anchor = next(iter(graph.vertices()))
        overlay.note_insert(anchor, "brand-new", 0.5, 0.5, keywords_v={"zeta"})
        index = overlay.table.index_of("brand-new")
        assert overlay.keywords_of(index) == frozenset({"zeta"})
        assert overlay.degree(index) == 1

    def test_dirt_ratio_grows_with_edits_and_resets_on_compact(self):
        graph, overlay, _ = _mutated_pair(5)
        assert overlay.is_dirty
        assert overlay.dirt_ratio() > 0.0
        compacted = overlay.compact()
        assert DeltaCSR(compacted).dirt_ratio() == 0.0

    def test_live_edge_ids_cover_every_live_edge_once(self):
        graph, overlay, _ = _mutated_pair(6)
        ids = list(overlay.live_edge_ids())
        assert len(ids) == len(set(ids)) == graph.num_edges()
        keys = {overlay.edge_key(edge_id) for edge_id in ids}
        assert keys == {frozenset((u, v)) for u, v in graph.edges()}


class TestCompaction:
    @pytest.mark.parametrize("seed", range(8))
    def test_compact_is_bit_identical_to_refreeze(self, seed):
        graph, overlay, _ = _mutated_pair(seed, edits=16)
        compacted = overlay.compact()
        refrozen = freeze(graph)
        for name in _BUFFERS:
            assert getattr(compacted, name) == getattr(refrozen, name), (seed, name)
        assert compacted.keywords == refrozen.keywords
        assert compacted.table == refrozen.table

    def test_delete_then_reinsert_matches_dict_reorder(self):
        """A deleted-then-reinserted edge moves to the row's end in both worlds."""
        graph = _seeded_graph(7)
        overlay = DeltaCSR(freeze(graph))
        u_id, v_id = next(iter(graph.edges()))
        p_uv, p_vu = graph.probability(u_id, v_id), graph.probability(v_id, u_id)
        graph.remove_edge(u_id, v_id)
        overlay.note_delete(u_id, v_id)
        graph.add_edge(u_id, v_id, p_uv, p_vu)
        overlay.note_insert(u_id, v_id, p_uv, p_vu)
        compacted = overlay.compact()
        refrozen = freeze(graph)
        for name in _BUFFERS:
            assert getattr(compacted, name) == getattr(refrozen, name), name


class TestWorkspaceSync:
    @pytest.mark.parametrize("seed", range(5))
    def test_synced_workspace_equals_fresh_workspace(self, seed):
        graph = _seeded_graph(seed)
        overlay = DeltaCSR(freeze(graph))
        workspace = CSRWorkspace(overlay)
        workspace.ensure_entries()  # built before the edits: sync must patch them
        script = random_update_batch(
            graph, 10, rng=seed, insert_ratio=0.5, grow_probability=0.25,
            keyword_pool=("alpha",),
        )
        script.validate_against(overlay)
        script.apply_to(overlay)
        touched = workspace.sync()
        assert touched > 0
        fresh = CSRWorkspace(overlay)
        fresh.ensure_entries()
        assert workspace.n == fresh.n
        assert workspace.neighbor_ints == fresh.neighbor_ints
        assert workspace.ranked_arcs == fresh.ranked_arcs
        assert workspace.edge_arcs == fresh.edge_arcs
        assert workspace.sync() == 0  # idempotent once drained

    def test_rebind_carries_entries_over_a_pristine_overlay(self):
        graph = _seeded_graph(11)
        base = freeze(graph)
        workspace = CSRWorkspace(base)
        workspace.ensure_entries()
        before = list(workspace.ranked_arcs)
        assert before
        overlay = DeltaCSR(base)
        workspace.rebind(overlay)
        assert workspace.core is overlay
        assert workspace.ranked_arcs == before
        anchor = next(iter(graph.vertices()))
        other = [v for v in graph.vertices() if not graph.has_edge(anchor, v) and v != anchor][0]
        overlay.note_insert(anchor, other, 0.7, 0.7)
        assert workspace.sync() == 2


class TestPropagationOverOverlay:
    @pytest.mark.parametrize("seed", range(5))
    def test_overlay_propagation_matches_reference(self, seed):
        graph, overlay, _ = _mutated_pair(seed)
        rng = random.Random(seed)
        vertices = sorted(graph.vertices(), key=repr)
        seeds = frozenset(rng.sample(vertices, 3))
        for theta in (0.1, 0.3):
            ours = community_propagation_csr(overlay, seeds, theta)
            reference = community_propagation(graph, seeds, theta)
            assert ours.cpp == reference.cpp
            assert ours.score == reference.score


class TestAdjacencyCore:
    @pytest.mark.parametrize("seed", range(4))
    def test_noted_edits_match_a_fresh_view(self, seed):
        graph = _seeded_graph(seed, num_vertices=18)
        core = AdjacencyCore(graph)
        script = random_update_batch(
            graph, 10, rng=seed, insert_ratio=0.5, grow_probability=0.2,
        )
        script.validate_against(core)
        from repro.dynamic.updates import INSERT

        # The core applies each noted edit to the graph it wraps.
        for update in script:
            if update.op == INSERT:
                p_uv, p_vu = update.resolved_probabilities()
                core.note_insert(
                    update.u, update.v, p_uv, p_vu,
                    keywords_u=update.keywords_u, keywords_v=update.keywords_v,
                )
            else:
                core.note_delete(update.u, update.v)
        fresh = AdjacencyCore(graph)
        assert core.num_vertices == fresh.num_vertices
        assert core.num_edges == fresh.num_edges == graph.num_edges()
        for vertex in range(core.num_vertices):
            assert set(core.neighbor_row(vertex)) == set(fresh.neighbor_row(vertex))
        # Live edge keys agree (ids are assignment-order specific).
        ours = {core.edge_key(e) for e in core.live_edge_ids()}
        assert ours == {fresh.edge_key(e) for e in fresh.live_edge_ids()}

    def test_cores_satisfy_the_runtime_protocol(self):
        graph = _seeded_graph(1, num_vertices=10)
        assert isinstance(AdjacencyCore(graph), GraphCore)
        assert isinstance(DeltaCSR(freeze(graph)), GraphCore)


class TestUpdateBatchReplayValidation:
    def test_replay_rejects_missing_edge_deletion(self):
        """Replaying a deletion of a retired edge onto the overlay raises."""
        graph = _seeded_graph(2, num_vertices=8)
        overlay = DeltaCSR(freeze(graph))
        from repro.dynamic.updates import EdgeUpdate
        from repro.exceptions import GraphError

        missing = EdgeUpdate.delete("nope-a", "nope-b")
        overlay.note_insert("nope-a", "nope-b", 0.5, 0.5)
        overlay.note_delete("nope-a", "nope-b")
        assert not overlay.has_edge("nope-a", "nope-b")
        with pytest.raises(GraphError):
            UpdateBatch([missing]).apply_to(overlay)


class TestCoreEdits:
    """``has_edge`` and ``UpdateBatch.apply_to`` over both mutable cores."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", _CORES)
    def test_has_edge_tracks_the_reference(self, kind, seed):
        graph, core, _ = _mutated_pair(seed, kind=kind)
        ids = sorted(graph.vertices(), key=repr) + ["absent"]
        for u in ids:
            for v in ids:
                if u != v:
                    assert core.has_edge(u, v) == graph.has_edge(u, v), (u, v)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", _CORES)
    def test_apply_to_tracks_the_reference(self, kind, seed):
        graph = _seeded_graph(seed)
        core = _core_of(kind, graph)
        script = random_update_batch(
            graph, 14, rng=seed, insert_ratio=0.6, grow_probability=0.3,
            keyword_pool=("alpha", "beta"),
        )
        before = list(graph.vertices())
        script.validate_against(core)
        created = script.apply_to(core)
        assert created == script.apply_to(AdjacencyCore(graph))
        assert created == [v for v in graph.vertices() if v not in before]
        assert core.num_vertices == graph.num_vertices()
        assert core.num_edges == graph.num_edges()
        assert list(core.table) == list(graph.vertices())
        index_of = core.table.index_of
        for u_id in graph.vertices():
            u = index_of(u_id)
            assert core.keywords_of(u) == graph.keywords(u_id)
            assert _row_of(graph, core, u_id), u_id
            for v_id in graph.neighbors(u_id):
                assert core.probability(u, index_of(v_id)) == graph.probability(u_id, v_id)
