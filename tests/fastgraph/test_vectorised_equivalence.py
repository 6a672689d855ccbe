"""Vector-tier equivalence: the batched numpy offline pass vs the stdlib pass.

The vector tier is the offline pass alone (Algorithm 2): numpy counts the
edge supports (:func:`~repro.fastgraph.vectorised.edge_supports_vector`) and
aggregates blocks of centres at once
(:func:`~repro.fastgraph.vectorised.ball_aggregates_batch`); every online
kernel is the stdlib one.  It runs whenever numpy imports; without numpy the
build is the record refresh run over every centre.  Its contract is *bit
identity* with that numpy-free pass — identical ints for supports and
trussness, bit-identical floats for score bounds — so this module compares
the pass kernel by kernel on seeded and hypothesis-generated graphs
(supports, the peel they feed, and block aggregates over arbitrary centre
samples against the numpy-free records and the reference propagation of
each nested ball), then ``precompute`` on both paths across bit widths
(both sides of the 64-bit OR branch), ``theta_min = 0``, a ``vertices=``
subset, more than one centre block and deep radii, a bound on the vector
pass's traced memory peak, then engine answers on both paths plus the
reference backend, incremental updates on a vector-built engine, and
store-attached engines.

The numpy-free side is chosen through one seam: :func:`numpy_free` patches
``repro.fastgraph.offline.NUMPY_AVAILABLE`` to ``False``.  The whole module
is skipped when numpy is absent (the numpy-free pass is then what every
other fastgraph test runs).
"""

from __future__ import annotations

import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings

from repro.fastgraph.csr import NUMPY_AVAILABLE

if not NUMPY_AVAILABLE:  # pragma: no cover - exercised by the no-numpy CI leg
    pytest.skip("numpy unavailable: the vector tier cannot run", allow_module_level=True)

from repro.core.config import EngineConfig
from repro.core.engine import InfluentialCommunityEngine
from repro.dynamic.updates import random_update_batch
from repro.fastgraph import edge_supports_csr, freeze, offline, vectorised
from repro.fastgraph.kernels import CSRWorkspace, truss_peel
from repro.fastgraph.vectorised import (
    _thresholded_arcs,
    ball_aggregates_batch,
    edge_supports_vector,
)
from repro.graph.core import AdjacencyCore
from repro.graph.generators import planted_community_graph
from repro.graph.keyword_assignment import assign_keywords
from repro.graph.social_network import SocialNetwork
from repro.index.precompute import precompute
from repro.influence.propagation import community_propagation
from repro.keywords.bitvector import BitVector, hash_keyword
from repro.query.params import make_dtopl_query, make_topl_query
from repro.store import pack_store

from tests.fastgraph.test_backend_equivalence import assert_precomputed_equal
from tests.fastgraph.test_kernel_equivalence import seeded_graph
from tests.property.strategies import KEYWORD_POOL, social_networks

_THRESHOLDS = (0.1, 0.3)


@contextmanager
def numpy_free():
    """Run the fast offline pass as it runs without numpy (the refresh kernel)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(offline, "NUMPY_AVAILABLE", False)
        yield


def numpy_free_precompute(graph, **kwargs):
    """``precompute(graph, backend="fast", **kwargs)`` on the numpy-free pass."""
    with numpy_free():
        return precompute(graph, backend="fast", **kwargs)


def _assert_supports_agree(graph) -> None:
    csr = freeze(graph)
    vector = edge_supports_vector(csr)
    assert vector.dtype == "int64" and len(vector) == csr.num_edges
    assert vector.tolist() == list(edge_supports_csr(csr))


@pytest.mark.parametrize("seed", range(20))
def test_edge_supports_bit_identical(seed):
    _, graph = seeded_graph(seed)
    _assert_supports_agree(graph)


@settings(max_examples=30, deadline=None)
@given(graph=social_networks(min_vertices=2, max_vertices=14))
def test_hypothesis_edge_supports_bit_identical(graph):
    _assert_supports_agree(graph)


def _keyword_bits(csr, num_bits):
    return [BitVector.from_keywords(keywords, num_bits).bits for keywords in csr.keywords]


def _assert_kernels_agree(rng, graph) -> None:
    """Every kernel of the vector offline pass vs its stdlib twin, on one graph.

    The vector pass is ``edge_supports_vector`` -> the stdlib ``truss_peel``
    -> ``ball_aggregates_batch``.  The block here is a random sample of
    centres in random order, repeats allowed (slots must stay disjoint),
    with a random threshold ladder, and every output must equal the stdlib
    numpy-free records of the same centres.
    """
    csr = freeze(graph)
    vector_supports = edge_supports_vector(csr)
    stdlib_supports = edge_supports_csr(csr)
    assert vector_supports.tolist() == list(stdlib_supports)
    edge_vec, vertex_vec = truss_peel(csr, vector_supports.tolist())
    edge_std, vertex_std = truss_peel(csr, stdlib_supports)
    assert list(edge_vec) == list(edge_std)
    assert list(vertex_vec) == list(vertex_std)

    n = csr.num_vertices
    centres = [rng.randrange(n) for _ in range(rng.randint(1, 2 * n))]
    thresholds = tuple(sorted(rng.sample((0.0, 0.05, 0.1, 0.2, 0.35, 0.6), 3)))
    arc_supports = vector_supports[csr.as_numpy()["arc_edge"]]
    for num_bits in (16, 96):  # both sides of the uint64 OR branch
        stdlib = numpy_free_precompute(
            graph, max_radius=3, thresholds=thresholds, num_bits=num_bits
        )
        # One run per gather, then runs of at most 3 arcs (slots split
        # across runs).
        for work in (10**9, 3):
            batch = ball_aggregates_batch(
                csr, _thresholded_arcs(csr, thresholds[0]), centres, 3, thresholds,
                num_bits, _keyword_bits(csr, num_bits), arc_supports, work,
            )
            assert len(batch) == len(centres)
            for centre, per_radius in zip(centres, batch):
                expected = stdlib.vertex_aggregates[csr.table.id_of(centre)].per_radius
                assert per_radius == expected, (centre, thresholds, num_bits, work)
                for aggregates in per_radius.values():
                    # Plain python scalars at the boundary: np.int64 is not
                    # an int and would break JSON serialization downstream.
                    assert type(aggregates.support_upper_bound) is int
                    assert type(aggregates.bitvector.bits) is int
                    assert all(type(sigma) is float for _, sigma in aggregates.score_bounds)


@pytest.mark.parametrize("seed", range(20))
def test_kernels_bit_identical_quick(seed):
    rng, graph = seeded_graph(seed)
    _assert_kernels_agree(rng, graph)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(20, 80))
def test_kernels_bit_identical_nightly(seed):
    rng, graph = seeded_graph(seed)
    _assert_kernels_agree(rng, graph)


@settings(max_examples=30, deadline=None)
@given(graph=social_networks(min_vertices=2, max_vertices=14))
def test_hypothesis_kernels_bit_identical(graph):
    _assert_kernels_agree(random.Random(0), graph)


@pytest.mark.parametrize("seed", range(12))
def test_nested_propagation_bit_identical(seed):
    """The batched fixpoint vs a reference propagation per nested ball.

    Algorithm 2's inner loop: each radius's score bound is the descending
    sum of the reference ``community_propagation`` of the centre's ball at
    that radius, float for float.
    """
    _, graph = seeded_graph(seed)
    csr = freeze(graph)
    workspace = CSRWorkspace(csr)
    centre = 0
    order = workspace.bfs_ball(centre, 3)
    dist = workspace.dist
    supports = edge_supports_vector(csr)
    for theta in (0.0, 0.1):
        (per_radius,) = ball_aggregates_batch(
            csr, _thresholded_arcs(csr, theta), [centre], 3, (theta,), 16,
            _keyword_bits(csr, 16), supports[csr.as_numpy()["arc_edge"]], 10**9,
        )
        for radius in (1, 2, 3):
            ball = frozenset(csr.table.id_of(v) for v in order if dist[v] <= radius)
            reference = community_propagation(graph, ball, theta)
            running = 0.0
            for probability in sorted(reference.cpp.values(), reverse=True):
                running += probability
            assert per_radius[radius].score_bounds == ((theta, running),), (
                seed, theta, radius,
            )


def _precompute_both(graph, **kwargs):
    """``(vector, numpy-free, reference)`` precomputes of ``graph`` with ``kwargs``."""
    vector = precompute(graph, backend="fast", **kwargs)
    stdlib = numpy_free_precompute(graph, **kwargs)
    reference = precompute(graph, **kwargs)
    return vector, stdlib, reference


def _top_bit_keyword(num_bits):
    """A keyword that hashes to the highest bit of a ``num_bits`` vector."""
    return next(
        word for word in (f"w{i}" for i in range(100_000))
        if hash_keyword(word, num_bits) == num_bits - 1
    )


def _with_edge_cases(graph, num_bits):
    """``graph`` plus the corners of the batched fold and fixpoint.

    Two isolated centres (no arcs at all: no shell 1, nothing to relax), a
    pendant pair whose balls stop growing at radius 1 (empty outer shells)
    and whose one arc carries ``p = 0`` one way, a ``p = 0`` arc on a
    vertex of the main graph, and keywords on the top bit of the vector
    (bit 63 at B = 64 is the sign bit of an int64).
    """
    top = _top_bit_keyword(num_bits)
    graph.add_vertex(10_001, (top,))
    graph.add_vertex(10_002, ("movies", top))
    graph.add_edge(10_003, 10_004, 0.0, 0.4)
    graph.add_vertex(10_003, (top,))
    anchor = min(graph.vertices(), key=repr)
    graph.add_edge(anchor, 10_005, 0.0, 0.0)
    graph.add_vertex(anchor, (top,))
    return graph


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("num_bits", (16, 32, 63, 64, 65, 96))
def test_precompute_bit_identical_across_tiers(seed, num_bits):
    """B <= 64 ORs keyword bits as uint64 arrays; B > 64 as Python ints."""
    _, graph = seeded_graph(seed)
    _with_edge_cases(graph, num_bits)
    vector, stdlib, reference = _precompute_both(
        graph, max_radius=3, thresholds=_THRESHOLDS, num_bits=num_bits
    )
    assert_precomputed_equal(vector, stdlib, seed)
    assert_precomputed_equal(vector, reference, seed)


@pytest.mark.parametrize("seed", range(6))
def test_precompute_tiers_agree_at_theta_zero(seed):
    """``theta_min = 0`` keeps every positive arc in the relaxation CSR."""
    _, graph = seeded_graph(seed)
    vector, stdlib, reference = _precompute_both(
        graph, max_radius=2, thresholds=(0.0, 0.2), num_bits=32
    )
    assert_precomputed_equal(vector, stdlib, seed)
    assert_precomputed_equal(vector, reference, seed)


@pytest.mark.parametrize("seed", range(6))
def test_precompute_tiers_agree_on_a_vertex_subset(seed):
    _, graph = seeded_graph(seed)
    vertices = sorted(graph.vertices(), key=repr)[::3]
    vector, stdlib, reference = _precompute_both(
        graph, max_radius=2, thresholds=_THRESHOLDS, num_bits=32, vertices=vertices
    )
    assert set(vector.vertex_aggregates) == set(vertices)
    assert_precomputed_equal(vector, stdlib, seed)
    assert_precomputed_equal(vector, reference, seed)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("num_bits", (32, 63, 64, 65, 96))
def test_precompute_tiers_agree_across_blocks(seed, num_bits, monkeypatch):
    """Centre blocks are independent: cutting the build into many changes nothing.

    Two centres per block, so the isolated centres and the pendant pair of
    :func:`_with_edge_cases` share blocks with each other and with the
    main graph, and the same work bound cuts gathers into runs of at most
    ``2 n`` arcs.  The blocked build runs twice: with the default
    ``_WIDE_ROW`` and with every score-bound row summed on its own.
    """
    import repro.fastgraph.offline as offline

    _, graph = seeded_graph(seed)
    _with_edge_cases(graph, num_bits)
    whole = precompute(
        graph, max_radius=3, thresholds=_THRESHOLDS, num_bits=num_bits, backend="fast"
    )
    monkeypatch.setattr(
        offline, "_VECTOR_BLOCK_WORK", max(2, 2 * graph.num_vertices())
    )
    vector, stdlib, _ = _precompute_both(
        graph, max_radius=3, thresholds=_THRESHOLDS, num_bits=num_bits
    )
    assert_precomputed_equal(vector, whole, seed)
    assert_precomputed_equal(vector, stdlib, seed)
    monkeypatch.setattr(vectorised, "_WIDE_ROW", 1)
    vector = precompute(
        graph, max_radius=3, thresholds=_THRESHOLDS, num_bits=num_bits, backend="fast"
    )
    assert_precomputed_equal(vector, stdlib, seed)


@pytest.mark.parametrize("max_radius", (130, 255, 260))
def test_precompute_tiers_agree_at_deep_radii(max_radius):
    """Hop depths past any small integer width: the BFS depth array widens.

    A 300-vertex path, so balls keep growing up to the largest radius; the
    depth array used to be int8 (an ``OverflowError`` from r = 128).
    """
    graph = SocialNetwork()
    for vertex in range(300):
        graph.add_vertex(vertex, (KEYWORD_POOL[vertex % len(KEYWORD_POOL)],))
    for vertex in range(299):
        graph.add_edge(vertex, vertex + 1, 0.9, 0.8)
    kwargs = dict(max_radius=max_radius, thresholds=_THRESHOLDS, vertices=[0, 150, 299])
    vector = precompute(graph, backend="fast", **kwargs)
    stdlib = numpy_free_precompute(graph, **kwargs)
    assert_precomputed_equal(vector, stdlib, max_radius)


def test_vector_precompute_scratch_is_bounded_by_its_work():
    """The vector pass's traced peak stays far below ``block x n`` scratch.

    A 2,000-vertex sparse planted network (40 communities of 50), r = 2,
    B = 64.  Blocks of ``_VECTOR_BLOCK_WORK // n`` centres keep the dense
    per-key arrays small, and every gather and score-bound sort is cut to
    the same bound; the whole ``precompute`` (supports, peel, output
    records included) peaked at 63 MB when one block held every centre,
    and at 9 MB with the bound.
    """
    import tracemalloc

    graph = planted_community_graph([50] * 40, 0.1, 0.00005, rng=7)
    assign_keywords(graph, keywords_per_vertex=3, domain_size=50, rng=7)
    tracemalloc.start()
    try:
        precompute(graph, max_radius=2, num_bits=64, backend="fast")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20, f"traced peak {peak / 2**20:.1f} MB"


def _fingerprint(result):
    return tuple((c.center, c.vertices, c.score) for c in result)


def _build_engines(make_graph):
    """Engines on the numpy-free pass, the vector pass and the reference backend."""
    config = EngineConfig(max_radius=2, thresholds=_THRESHOLDS, backend="fast")
    with numpy_free():
        stdlib = InfluentialCommunityEngine.build(make_graph(), config=config, validate=False)
    return {
        "stdlib": stdlib,
        "vector": InfluentialCommunityEngine.build(make_graph(), config=config, validate=False),
        "reference": InfluentialCommunityEngine.build(
            make_graph(),
            config=EngineConfig(max_radius=2, thresholds=_THRESHOLDS),
            validate=False,
        ),
    }


@pytest.mark.parametrize("seed", range(6))
def test_engine_answers_identical_across_tiers(seed):
    rng, _ = seeded_graph(seed)
    engines = _build_engines(lambda: seeded_graph(seed)[1])
    from tests.property.strategies import KEYWORD_POOL

    for _ in range(3):
        keywords = frozenset(rng.sample(KEYWORD_POOL, rng.randint(1, 3)))
        query = make_topl_query(
            keywords, k=rng.choice((3, 4)), radius=rng.choice((1, 2)),
            theta=rng.choice((0.1, 0.3)), top_l=rng.choice((2, 3)),
        )
        answers = {name: _fingerprint(e.topl(query)) for name, e in engines.items()}
        assert len(set(answers.values())) == 1, (seed, query, answers)
    dquery = make_dtopl_query(keywords, k=3, radius=2, theta=0.1, top_l=2, candidate_factor=2)
    danswers = {name: e.dtopl(dquery) for name, e in engines.items()}
    assert len({_fingerprint(a) for a in danswers.values()}) == 1, (seed, dquery)
    assert len({a.diversity_score for a in danswers.values()}) == 1


def test_vector_built_engine_stays_exact_after_updates():
    """A vector-built index, patched incrementally, equals a fresh build.

    The vector tier runs only the offline pass; ``apply_updates`` patches
    the snapshot through a :class:`DeltaCSR` overlay and refreshes records
    with the stdlib kernels, which must continue the vector-built records
    without changing a single bit of the answers.
    """
    rng, graph = seeded_graph(903)
    engine = InfluentialCommunityEngine.build(
        graph.copy(),
        config=EngineConfig(max_radius=2, thresholds=_THRESHOLDS, backend="fast"),
        validate=False,
    )
    batch = random_update_batch(graph, 6, rng=rng, insert_ratio=0.5)
    report = engine.apply_updates(batch, damage_threshold=1.0)
    assert report.mode == "incremental"
    batch.apply_to(AdjacencyCore(graph))
    fresh = InfluentialCommunityEngine.build(
        graph.copy(),
        config=EngineConfig(max_radius=2, thresholds=_THRESHOLDS),
        validate=False,
    )
    assert_precomputed_equal(engine.index.precomputed, fresh.index.precomputed, "post-update")
    from tests.property.strategies import KEYWORD_POOL

    query = make_topl_query(frozenset(KEYWORD_POOL[:2]), k=3, radius=2, theta=0.1, top_l=3)
    patched = tuple((c.vertices, c.score) for c in engine.topl(query))
    rebuilt = tuple((c.vertices, c.score) for c in fresh.topl(query))
    assert patched == rebuilt


def test_store_attached_engine_runs_vector_tier(tmp_path):
    _, graph = seeded_graph(904)
    built = InfluentialCommunityEngine.build(
        graph,
        config=EngineConfig(max_radius=2, thresholds=_THRESHOLDS, backend="fast"),
        validate=False,
    )
    path = tmp_path / "vector.repro-store"
    pack_store(built, str(path))
    attached = InfluentialCommunityEngine.from_store(str(path))
    assert attached.describe()["kernels"]["active"] == "vector"
    from tests.property.strategies import KEYWORD_POOL

    query = make_topl_query(frozenset(KEYWORD_POOL[:3]), k=3, radius=2, theta=0.1, top_l=3)
    assert _fingerprint(attached.topl(query)) == _fingerprint(built.topl(query))


def test_active_tier_is_vector_with_numpy():
    _, graph = seeded_graph(905)
    engine = InfluentialCommunityEngine.build(
        graph, config=EngineConfig(max_radius=2, backend="fast"), validate=False
    )
    assert engine.describe()["kernels"]["active"] == "vector"  # numpy imports here


def test_active_tier_is_stdlib_without_numpy():
    """The module flag is the only switch: build, rebuild and describe follow it."""
    rng, graph = seeded_graph(905)
    config = EngineConfig(max_radius=2, thresholds=_THRESHOLDS, backend="fast")
    with numpy_free():
        engine = InfluentialCommunityEngine.build(graph, config=config, validate=False)
        assert engine.describe()["kernels"]["active"] == "stdlib"
        batch = random_update_batch(graph, 4, rng=rng, insert_ratio=0.5)
        assert engine.apply_updates(batch, rebuild=True).mode == "rebuild"
    reference = precompute(engine.graph, max_radius=2, thresholds=_THRESHOLDS)
    assert_precomputed_equal(engine.index.precomputed, reference, "numpy-free rebuild")


def test_engine_config_has_no_kernel_tier():
    """The kernel is not a setting; only old inputs may still name it."""
    assert "kernel_tier" not in EngineConfig().describe()
    with pytest.raises(TypeError):
        EngineConfig(kernel_tier="vector")


def test_describe_surfaces_kernel_diagnostics():
    _, graph = seeded_graph(906)
    fast = InfluentialCommunityEngine.build(
        graph,
        config=EngineConfig(max_radius=2, thresholds=_THRESHOLDS, backend="fast"),
        validate=False,
    )
    kernels = fast.describe()["kernels"]
    assert kernels == {"active": "vector", "numpy_version": kernels["numpy_version"]}
    assert kernels["numpy_version"]
    reference = InfluentialCommunityEngine.build(
        graph.copy(),
        config=EngineConfig(max_radius=2, thresholds=_THRESHOLDS),
        validate=False,
    )
    assert reference.describe()["kernels"]["active"] is None
