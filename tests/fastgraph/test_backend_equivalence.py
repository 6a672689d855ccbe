"""System-level cross-backend equivalence: index aggregates and query answers.

Builds the engine once per backend over the same graph and asserts that
everything observable is identical — pre-computed records bit for bit
(floats included), and TopL-ICDE / DTopL-ICDE answers community for
community, score for score.  The CI backend-matrix leg runs this module
with ``REPRO_TEST_BACKEND=fast`` (also the default here); the variable
selects the backend under test, which is always compared against a
reference-backend build of the same graph.  The fast backend's offline pass
is the one the installed packages give: the batched numpy pass when numpy
imports, the numpy-free record kernel otherwise, so running this module
with and without numpy puts both passes through the same gates.
"""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import given, settings

from repro.core.config import EngineConfig
from repro.core.engine import InfluentialCommunityEngine
from repro.dynamic.updates import random_update_batch
from repro.exceptions import QueryParameterError
from repro.graph.core import AdjacencyCore
from repro.graph.generators import erdos_renyi_graph
from repro.index.precompute import precompute
from repro.query.params import make_dtopl_query, make_topl_query

from tests.property.strategies import KEYWORD_POOL, social_networks

#: Backend under test; the CI matrix exports REPRO_TEST_BACKEND=fast.
BACKEND = os.environ.get("REPRO_TEST_BACKEND", "fast")
_THRESHOLDS = (0.1, 0.3)


def _seeded_graph(seed: int):
    rng = random.Random(seed)
    graph = erdos_renyi_graph(
        rng.randint(6, 18),
        edge_probability=rng.uniform(0.2, 0.55),
        rng=seed,
        weight_range=(0.15, 0.85),
        name=f"backend-equiv-{seed}",
    )
    for vertex in list(graph.vertices()):
        graph.set_keywords(vertex, rng.sample(KEYWORD_POOL, rng.randint(1, 3)))
    return rng, graph


def assert_precomputed_equal(ours, reference, context) -> None:
    """Bit-for-bit equality of two PrecomputedData objects."""
    assert ours.global_edge_support == reference.global_edge_support, context
    assert set(ours.vertex_aggregates) == set(reference.vertex_aggregates), context
    for vertex, mine in ours.vertex_aggregates.items():
        theirs = reference.vertex_aggregates[vertex]
        assert mine.keyword_bitvector == theirs.keyword_bitvector, (context, vertex)
        assert mine.center_trussness == theirs.center_trussness, (context, vertex)
        assert set(mine.per_radius) == set(theirs.per_radius), (context, vertex)
        for radius in mine.per_radius:
            fast_r = mine.per_radius[radius]
            ref_r = theirs.per_radius[radius]
            assert fast_r.bitvector == ref_r.bitvector, (context, vertex, radius)
            assert fast_r.support_upper_bound == ref_r.support_upper_bound, (
                context, vertex, radius,
            )
            # Exact float equality is the contract, not pytest.approx.
            assert fast_r.score_bounds == ref_r.score_bounds, (context, vertex, radius)


def _fingerprint(result):
    return tuple((c.center, c.vertices, c.score) for c in result)


def _check_precompute(seed: int) -> None:
    _, graph = _seeded_graph(seed)
    reference = precompute(graph, max_radius=3, thresholds=_THRESHOLDS, num_bits=32)
    fast = precompute(
        graph, max_radius=3, thresholds=_THRESHOLDS, num_bits=32, backend=BACKEND,
    )
    assert_precomputed_equal(fast, reference, seed)


def _check_answers(seed: int) -> None:
    rng, graph = _seeded_graph(seed)
    config = EngineConfig(max_radius=2, thresholds=_THRESHOLDS, fanout=3, leaf_capacity=4)
    reference = InfluentialCommunityEngine.build(graph, config=config, validate=False)
    under_test = InfluentialCommunityEngine.build(
        graph.copy(),
        config=EngineConfig(
            max_radius=2, thresholds=_THRESHOLDS, fanout=3, leaf_capacity=4,
            backend=BACKEND,
        ),
        validate=False,
    )
    for _ in range(3):
        keywords = frozenset(rng.sample(KEYWORD_POOL, rng.randint(1, 3)))
        query = make_topl_query(
            keywords,
            k=rng.choice((3, 4)),
            radius=rng.choice((1, 2)),
            theta=rng.choice((0.1, 0.3)),
            top_l=rng.choice((2, 3)),
        )
        assert _fingerprint(under_test.topl(query)) == _fingerprint(
            reference.topl(query)
        ), (seed, query)
    dquery = make_dtopl_query(
        keywords, k=3, radius=2, theta=0.1, top_l=2, candidate_factor=2
    )
    ours, theirs = under_test.dtopl(dquery), reference.dtopl(dquery)
    assert _fingerprint(ours) == _fingerprint(theirs), (seed, dquery)
    assert ours.diversity_score == theirs.diversity_score, (seed, dquery)


@pytest.mark.parametrize("seed", range(25))
def test_precompute_bit_identical_quick(seed):
    _check_precompute(seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(25, 125))
def test_precompute_bit_identical_nightly(seed):
    _check_precompute(seed)


@pytest.mark.parametrize("seed", range(12))
def test_query_answers_identical_quick(seed):
    _check_answers(seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(12, 62))
def test_query_answers_identical_nightly(seed):
    _check_answers(seed)


@settings(max_examples=25, deadline=None)
@given(graph=social_networks(min_vertices=3, max_vertices=12))
def test_hypothesis_precompute_bit_identical(graph):
    reference = precompute(graph, max_radius=2, thresholds=_THRESHOLDS, num_bits=32)
    fast = precompute(
        graph, max_radius=2, thresholds=_THRESHOLDS, num_bits=32, backend=BACKEND,
    )
    assert_precomputed_equal(fast, reference, "hypothesis")


def test_serving_layer_inherits_backend():
    _, graph = _seeded_graph(901)
    engine = InfluentialCommunityEngine.build(
        graph,
        config=EngineConfig(
            max_radius=2, thresholds=_THRESHOLDS, backend=BACKEND,
        ),
        validate=False,
    )
    serving = engine.serve()
    assert serving._topl.backend == BACKEND
    query = make_topl_query(frozenset(KEYWORD_POOL[:3]), k=3, radius=2, theta=0.1, top_l=3)
    direct = engine.topl(query)
    served = serving.answer(query)
    assert _fingerprint(direct) == _fingerprint(served)


def test_dynamic_updates_fall_back_and_stay_equivalent():
    """After apply_updates the fast engine must agree with a fresh reference build."""
    rng, graph = _seeded_graph(902)
    engine = InfluentialCommunityEngine.build(
        graph.copy(),
        config=EngineConfig(
            max_radius=2, thresholds=_THRESHOLDS, backend=BACKEND,
        ),
        validate=False,
    )
    assert engine.frozen_graph() is (None if BACKEND == "reference" else engine._frozen)
    batch = random_update_batch(graph, 6, rng=rng, insert_ratio=0.5)
    report = engine.apply_updates(batch, damage_threshold=1.0)
    assert report.mode == "incremental"
    batch.apply_to(AdjacencyCore(graph))
    if BACKEND == "fast":
        # The snapshot is patched in place (a DeltaCSR overlay) — or, when
        # the batch pushed the dirt ratio over the compaction knob, folded
        # straight into a pure CSR.  Either way it tracks the mutated graph
        # with no full re-freeze.
        assert report.applied_mode in ("patch", "compact")
        assert engine._frozen is not None
        assert engine._frozen.num_edges == graph.num_edges()
        assert engine._frozen.num_vertices == graph.num_vertices()
    else:
        assert engine._frozen is None  # the reference backend has no snapshot
    fresh = InfluentialCommunityEngine.build(
        graph.copy(),
        config=EngineConfig(max_radius=2, thresholds=_THRESHOLDS),
        validate=False,
    )
    assert_precomputed_equal(
        engine.index.precomputed, fresh.index.precomputed, "post-update"
    )
    query = make_topl_query(frozenset(KEYWORD_POOL[:2]), k=3, radius=2, theta=0.1, top_l=3)
    # The patched tree's node layout differs from a freshly built tree's, so
    # the credited centre of a community may differ (any member of a dense
    # cluster is a valid centre); the communities and scores must not.
    patched = tuple((c.vertices, c.score) for c in engine.topl(query))
    rebuilt = tuple((c.vertices, c.score) for c in fresh.topl(query))
    assert patched == rebuilt


def test_engine_config_rejects_unknown_backend():
    with pytest.raises(QueryParameterError):
        EngineConfig(backend="gpu")


def test_engine_config_describe_includes_backend():
    assert EngineConfig(backend="fast").describe()["backend"] == "fast"
