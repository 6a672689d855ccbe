"""The arc-seeded influence taint of ``affected_centers``.

The reverse influence walk starts at each edited arc's tail ``t`` with that
arc's probability ``p(t -> h)``.  These tests pin down both halves of that
contract:

* precision — a vertex that reaches an edited endpoint with a product above
  ``theta_min``, but not across the edited arc, stays out of the taint, and
  so do the centres more than ``r_max`` hops from every seed;
* exactness on batches that edit one edge twice — an edge inserted and
  deleted again, and an edge deleted and re-inserted with a lower
  probability, whose old arc only the deletion's record still carries.
"""

from __future__ import annotations

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import InfluentialCommunityEngine
from repro.dynamic.maintenance import affected_centers
from repro.dynamic.updates import EdgeUpdate, UpdateBatch
from repro.graph.social_network import SocialNetwork
from repro.index.precompute import precompute

from tests.dynamic.strategies_dynamic import make_truss_state

BACKENDS = ("reference", "fast")


def _assert_records_fresh(engine: InfluentialCommunityEngine, config: EngineConfig) -> None:
    fresh = precompute(
        engine.graph,
        max_radius=config.max_radius,
        thresholds=config.thresholds,
        num_bits=config.num_bits,
    )
    assert engine.index.precomputed.vertex_aggregates == fresh.vertex_aggregates


def test_taint_stops_where_the_edited_arc_cannot_carry_theta():
    """``w`` reaches ``u`` at 0.5, but ``0.5 * p(u -> v) = 0.15 < theta_min``.

    Layout (one chain plus a pendant): ``7 - 0 - 1 = 2 - 3 - 4 - 5 - 6``,
    where ``1 = 2`` is the inserted edge, ``w = 0`` and ``u = 1``.  Seeding
    the walk at the endpoints with ``1.0`` would taint ``0`` and, through it,
    the pendant ``7``.
    """
    graph = SocialNetwork()
    for vertex in range(8):
        graph.add_vertex(vertex, ["movies"])
    graph.add_edge(0, 1, 0.5, 0.05)
    graph.add_edge(7, 0, 0.05, 0.05)
    for u, v in ((2, 3), (3, 4), (4, 5), (5, 6)):
        graph.add_edge(u, v, 0.05, 0.05)
    theta_min, radius = 0.2, 1
    state = make_truss_state(graph)
    delta = state.apply(UpdateBatch([EdgeUpdate.insert(1, 2, 0.3, 0.1)]))

    centres, influenced = affected_centers(
        state.core, delta, max_radius=radius, theta_min=theta_min
    )

    assert 0 not in influenced
    assert influenced == {1, 2}
    # Within one hop of the seeds 1 and 2; the pendant 7 and the chain
    # beyond 3 are two or more hops away.
    assert centres == {0, 1, 2, 3}


@pytest.mark.parametrize("backend", BACKENDS)
def test_insert_then_delete_in_one_batch(backend):
    """The inserted edge is gone again; its probabilities live in the deletion."""
    graph = _chain()
    config = _config(backend)
    engine = InfluentialCommunityEngine.build(graph, config=config, validate=False)
    report = engine.apply_updates(
        [EdgeUpdate.insert(0, 5, 0.9, 0.9), EdgeUpdate.delete(0, 5)], damage_threshold=1.0
    )
    assert report.mode == "incremental"
    assert not engine.graph.has_edge(0, 5)
    _assert_records_fresh(engine, config)


@pytest.mark.parametrize("backend", BACKENDS)
def test_delete_then_reinsert_weaker(backend):
    """Re-inserting ``(3, 4)`` at 0.05 cuts ``upp(0, 4)`` from 0.81 below theta.

    Centres ``0`` and ``1`` are more than ``r_max = 1`` hops from the edited
    endpoints, so only the deletion's arc ``3 -> 4`` at 0.95 taints them.
    """
    graph = _chain()
    config = _config(backend)
    engine = InfluentialCommunityEngine.build(graph, config=config, validate=False)
    report = engine.apply_updates(
        [EdgeUpdate.delete(3, 4), EdgeUpdate.insert(3, 4, 0.05, 0.05)], damage_threshold=1.0
    )
    assert report.mode == "incremental"
    assert engine.graph.probability(3, 4) == 0.05
    _assert_records_fresh(engine, config)


def _chain() -> SocialNetwork:
    """``0 - 1 - 2 - 3 - 4 - 5`` with forward probability 0.95."""
    graph = SocialNetwork()
    for vertex in range(6):
        graph.add_vertex(vertex, ["movies"] if vertex % 2 else ["books"])
    for vertex in range(5):
        graph.add_edge(vertex, vertex + 1, 0.95, 0.05)
    return graph


def _config(backend: str) -> EngineConfig:
    return EngineConfig(max_radius=1, thresholds=(0.5,), backend=backend)
