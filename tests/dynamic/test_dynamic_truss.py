"""Targeted tests for incremental truss maintenance (exactness by construction)."""

from __future__ import annotations

from repro.dynamic.truss_maintenance import IncrementalTrussState
from repro.dynamic.updates import EdgeUpdate, UpdateBatch
from repro.graph.generators import complete_graph, planted_community_graph
from repro.graph.social_network import SocialNetwork
from repro.truss.decomposition import truss_decomposition
from repro.truss.support import edge_key, edge_support

from tests.dynamic.strategies_dynamic import apply_reference, make_truss_state


def _apply(state: IncrementalTrussState, graph: SocialNetwork, batch: UpdateBatch):
    """Apply ``batch`` to the state and to the reference ``graph``."""
    delta = state.apply(batch)
    apply_reference(graph, batch)
    return delta


def _assert_exact(state: IncrementalTrussState, graph: SocialNetwork) -> None:
    """The state must match a from-scratch decomposition of the reference graph."""
    fresh = truss_decomposition(graph)
    assert state.trussness == fresh.edge_trussness
    assert state.supports == edge_support(graph)
    assert state.decomposition().vertex_trussness == fresh.vertex_trussness


def _near_clique() -> SocialNetwork:
    """A 4-clique missing one edge: every edge has trussness 3."""
    graph = SocialNetwork(name="near-clique")
    for u, v in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3)):
        graph.add_edge(u, v, 0.5)
    return graph


class TestInsertion:
    def test_completing_a_clique_lifts_a_distant_edge(self):
        """Inserting {2,3} lifts edge {0,1} to trussness 4 even though the
        support of {0,1} never changes — the candidate BFS must reach it."""
        graph = _near_clique()
        state = make_truss_state(graph)
        _apply(state, graph, UpdateBatch([EdgeUpdate.insert(2, 3, 0.5)]))
        assert state.trussness[edge_key(0, 1)] == 4
        _assert_exact(state, graph)

    def test_insert_between_new_vertices(self):
        graph = _near_clique()
        state = make_truss_state(graph)
        delta = _apply(
            state, graph, UpdateBatch([EdgeUpdate.insert(10, 11, 0.4, keywords_u={"music"})])
        )
        assert delta.new_vertices == [10, 11]
        assert graph.keywords(10) == frozenset({"music"})
        core = state.core
        assert core.keywords_of(core.table.index_of(10)) == frozenset({"music"})
        assert state.trussness[edge_key(10, 11)] == 2
        _assert_exact(state, graph)

    def test_pendant_insert_changes_nothing_else(self):
        graph = complete_graph(5, rng=1)
        state = make_truss_state(graph)
        before = dict(state.trussness)
        delta = _apply(state, graph, UpdateBatch([EdgeUpdate.insert(0, 99, 0.3)]))
        assert delta.truss_changed == set()
        for key, value in before.items():
            assert state.trussness[key] == value
        _assert_exact(state, graph)


class TestDeletion:
    def test_clique_edge_deletion_cascades(self):
        graph = complete_graph(5, rng=1)  # every edge trussness 5
        state = make_truss_state(graph)
        delta = _apply(state, graph, UpdateBatch([EdgeUpdate.delete(0, 1)]))
        # The survivors drop: edges at 0 and 1 to 4, and the peeling of the
        # remaining K4 caps everything at 4.
        assert all(value == 4 for value in state.trussness.values())
        assert delta.deleted_edges[0][:2] == (0, 1)
        _assert_exact(state, graph)

    def test_deleting_bridge_leaves_cliques_untouched(self, two_cliques_bridge):
        state = make_truss_state(two_cliques_bridge)
        before = dict(state.trussness)
        delta = _apply(state, two_cliques_bridge, UpdateBatch([EdgeUpdate.delete(4, 5)]))
        assert delta.truss_changed == set()
        for key in before:
            if key != edge_key(4, 5):
                assert state.trussness[key] == before[key]
        _assert_exact(state, two_cliques_bridge)

    def test_delete_then_reinsert_restores_decomposition(self):
        graph = complete_graph(4, rng=2)
        state = make_truss_state(graph)
        before = dict(state.trussness)
        delta = _apply(
            state,
            graph,
            UpdateBatch(
                [EdgeUpdate.delete(0, 1), EdgeUpdate.insert(0, 1, 0.5)]
            ),
        )
        assert state.trussness == before
        assert delta.truss_changed == set()
        _assert_exact(state, graph)


class TestBatches:
    def test_mixed_batch_on_planted_graph(self):
        graph = planted_community_graph([8, 8, 8], intra_probability=0.8,
                                        inter_probability=0.1, rng=3)
        state = make_truss_state(graph)
        edits = [
            EdgeUpdate.delete(*next(iter(graph.edges()))),
            EdgeUpdate.insert(0, 23, 0.6),
            EdgeUpdate.insert(1, 16, 0.4),
        ]
        delta = _apply(state, graph, UpdateBatch(edits))
        assert delta.touched_vertices >= {0, 1, 16, 23}
        _assert_exact(state, graph)

    def test_supports_adopted_by_reference(self):
        graph = complete_graph(4, rng=2)
        shared = edge_support(graph)
        state = make_truss_state(graph, supports=shared)
        _apply(state, graph, UpdateBatch([EdgeUpdate.delete(0, 1)]))
        # The caller's dict is the state's dict: updated in place.
        assert shared is state.supports
        assert shared == edge_support(graph)

    def test_delta_reports_net_changes_only(self):
        graph = _near_clique()
        state = make_truss_state(graph)
        delta = _apply(
            state, graph, UpdateBatch([EdgeUpdate.insert(2, 3, 0.5), EdgeUpdate.delete(2, 3)])
        )
        # Net effect is the identity: supports and trussness both report no
        # surviving change.
        assert delta.support_changed == set()
        assert delta.truss_changed == set()
        _assert_exact(state, graph)
