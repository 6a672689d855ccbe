"""Equivalence property suite: incremental maintenance ≡ full rebuild.

For randomized edit scripts over randomized graphs, after ``apply_updates``
(forced down the incremental path) everything the engine maintains must be
*identical* to recomputing from scratch on the mutated graph:

* trussness and supports ≡ a fresh ``truss_decomposition`` / ``edge_support``;
* every pre-computed record (keyword bit vectors, support upper bounds,
  per-threshold score bounds, centre trussness) ≡ a fresh ``precompute`` —
  bit-for-bit, floats included;
* TopL-ICDE and DTopL-ICDE answers through the patched tree ≡ answers through
  a freshly built tree.

The quick tier runs on every CI push; the 200-script bulk tier is marked
``slow`` for the nightly run (the repo-level tier-1 command still executes
it).  One hypothesis-driven test varies the graph distribution itself.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from repro.core.engine import InfluentialCommunityEngine
from repro.dynamic.updates import random_update_batch
from repro.graph.generators import erdos_renyi_graph
from repro.index.precompute import precompute
from repro.index.tree import build_tree_index
from repro.query.dtopl import DTopLProcessor
from repro.query.params import make_dtopl_query, make_topl_query
from repro.query.topl import TopLProcessor
from repro.truss.decomposition import truss_decomposition
from repro.truss.support import edge_support

from tests.dynamic.strategies_dynamic import (
    KEYWORD_POOL,
    apply_reference,
    dynamic_config,
    dynamic_scenarios,
)

_CONFIG = dynamic_config(
    max_radius=2, thresholds=(0.1, 0.3), fanout=3, leaf_capacity=4
)


def _random_scenario(seed: int):
    """Seeded random graph + engine + edit script (deterministic per seed)."""
    rng = random.Random(seed)
    num_vertices = rng.randint(8, 18)
    graph = erdos_renyi_graph(
        num_vertices,
        edge_probability=rng.uniform(0.2, 0.55),
        rng=seed,
        weight_range=(0.15, 0.85),
        name=f"equiv-{seed}",
    )
    for vertex in list(graph.vertices()):
        graph.set_keywords(vertex, rng.sample(KEYWORD_POOL, rng.randint(1, 3)))
    engine = InfluentialCommunityEngine.build(graph.copy(), config=_CONFIG, validate=False)
    batch = random_update_batch(
        graph,
        rng.randint(1, 10),
        rng=rng,
        insert_ratio=rng.uniform(0.3, 0.7),
        grow_probability=0.15,
        keyword_pool=KEYWORD_POOL,
    )
    return rng, graph, engine, batch


def _fingerprint(result):
    return tuple((c.vertices, round(c.score, 9)) for c in result)


def _assert_records_equal(patched, fresh, seed) -> None:
    assert set(patched) == set(fresh), f"seed {seed}: vertex cover differs"
    for vertex in patched:
        ours, reference = patched[vertex], fresh[vertex]
        assert ours.keyword_bitvector == reference.keyword_bitvector, (seed, vertex)
        assert ours.center_trussness == reference.center_trussness, (seed, vertex)
        assert set(ours.per_radius) == set(reference.per_radius), (seed, vertex)
        for radius in ours.per_radius:
            mine, theirs = ours.per_radius[radius], reference.per_radius[radius]
            assert mine.bitvector == theirs.bitvector, (seed, vertex, radius)
            assert mine.support_upper_bound == theirs.support_upper_bound, (
                seed, vertex, radius,
            )
            assert mine.score_bounds == theirs.score_bounds, (seed, vertex, radius)


def _check_equivalence(seed: int) -> None:
    rng, graph, engine, batch = _random_scenario(seed)
    report = engine.apply_updates(batch, damage_threshold=1.0)
    assert report.mode in ("incremental", "noop"), (seed, report.mode)
    apply_reference(graph, batch)

    # 1. trussness and supports.
    fresh_truss = truss_decomposition(graph)
    state = engine._truss_state
    if state is not None:
        assert state.trussness == fresh_truss.edge_trussness, f"seed {seed}"
        assert state.supports == edge_support(graph), f"seed {seed}"
    assert engine.index.precomputed.global_edge_support == edge_support(graph)

    # 2. pre-computed records, bit for bit.
    fresh_pre = precompute(
        graph,
        max_radius=_CONFIG.max_radius,
        thresholds=_CONFIG.thresholds,
        num_bits=_CONFIG.num_bits,
    )
    _assert_records_equal(
        engine.index.precomputed.vertex_aggregates,
        fresh_pre.vertex_aggregates,
        seed,
    )

    # 3. TopL / DTopL answers through patched vs freshly built trees.
    fresh_index = build_tree_index(
        graph,
        precomputed=fresh_pre,
        fanout=_CONFIG.fanout,
        leaf_capacity=_CONFIG.leaf_capacity,
    )
    for _ in range(2):
        keywords = frozenset(rng.sample(KEYWORD_POOL, rng.randint(1, 2)))
        topl_query = make_topl_query(
            keywords,
            k=rng.choice((3, 4)),
            radius=rng.choice((1, 2)),
            theta=rng.choice((0.1, 0.3)),
            top_l=rng.choice((2, 3)),
        )
        patched = TopLProcessor(graph, index=engine.index).query(topl_query)
        rebuilt = TopLProcessor(graph, index=fresh_index).query(topl_query)
        assert _fingerprint(patched) == _fingerprint(rebuilt), (seed, topl_query)
    dtopl_query = make_dtopl_query(
        keywords, k=3, radius=2, theta=0.1, top_l=2, candidate_factor=2
    )
    patched = DTopLProcessor(graph, index=engine.index).query(dtopl_query)
    rebuilt = DTopLProcessor(graph, index=fresh_index).query(dtopl_query)
    assert _fingerprint(patched) == _fingerprint(rebuilt), (seed, dtopl_query)


@pytest.mark.parametrize("seed", range(30))
def test_equivalence_quick(seed):
    """PR-scale tier: 30 randomized edit scripts."""
    _check_equivalence(seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(30, 230))
def test_equivalence_nightly(seed):
    """Nightly-scale tier: 200 further randomized edit scripts."""
    _check_equivalence(seed)


@pytest.mark.parametrize("seed", range(12))
def test_rebuild_path_equivalence(seed):
    """The damage-fallback path must agree with the incremental path."""
    _, graph, engine, batch = _random_scenario(1000 + seed)
    report = engine.apply_updates(batch, damage_threshold=0.01)
    assert report.mode in ("rebuild", "noop")
    apply_reference(graph, batch)
    fresh = InfluentialCommunityEngine.build(
        graph.copy(), config=_CONFIG, validate=False
    )
    query = make_topl_query(
        frozenset(KEYWORD_POOL[:2]), k=3, radius=2, theta=0.1, top_l=3
    )
    assert _fingerprint(engine.topl(query)) == _fingerprint(fresh.topl(query))


@settings(max_examples=25, deadline=None)
@given(scenario=dynamic_scenarios())
def test_hypothesis_truss_equivalence(scenario):
    """Hypothesis tier: arbitrary small graphs + scripts, trussness exactness."""
    graph, state, batch = scenario
    state.apply(batch)
    apply_reference(graph, batch)
    fresh = truss_decomposition(graph)
    assert state.trussness == fresh.edge_trussness
    assert state.supports == edge_support(graph)
    assert state.decomposition().vertex_trussness == fresh.vertex_trussness
