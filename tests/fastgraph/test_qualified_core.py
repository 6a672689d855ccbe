"""The fast read path's qualified core: keyword postings, T_Q, and the processor.

* :meth:`~repro.fastgraph.kernels.CSRWorkspace.qualified` builds Q from
  per-keyword postings; it must ``==`` an O(V) ``keywords_of`` scan of the
  workspace's core on a fresh build, after engine updates that intern new
  keyword-carrying vertices, after a compaction swaps the workspace, after
  ``rebind`` onto an overlay, and on a store-opened engine.
* :meth:`~repro.fastgraph.kernels.CSRWorkspace.qualified_truss` must ``==``
  the vertex set of the reference :func:`~repro.truss.ktruss.maximal_ktruss`
  on the induced subgraph G[Q], for every ``k`` including 2 and for an
  empty Q; its components must partition that set into the reference
  :func:`~repro.truss.ktruss.ktruss_component_of` components.
* Every index record's own keyword bits lie in each of its ball vectors
  (the ground on which the fast leaf scan skips Lemma 1's Bloom check for
  Q members): after a build, after incremental batches on both backends,
  and on a store-opened engine.
* A fast :class:`~repro.query.topl.TopLProcessor` handed only a workspace
  (no ``frozen`` snapshot) answers and counts exactly like the reference.
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import InfluentialCommunityEngine
from repro.dynamic.updates import EdgeUpdate, UpdateBatch
from repro.fastgraph.csr import freeze
from repro.fastgraph.delta import DeltaCSR
from repro.fastgraph.kernels import CSRWorkspace
from repro.graph.subgraph import SubgraphView
from repro.keywords.bitvector import BitVector
from repro.query.params import make_topl_query
from repro.query.topl import TopLProcessor
from repro.truss.ktruss import ktruss_component_of, maximal_ktruss
from tests.fastgraph.test_seed_extraction_csr import (
    DOMAIN,
    KS,
    _engines,
    _graph,
    _keyword_sets,
    _overlay_script,
    _work,
)

#: Keyword sets every postings check runs: each of the test domain's
#: singletons, a few unions, the empty set, and a keyword nobody carries.
KEYWORD_SETS = (
    [frozenset({keyword}) for keyword in DOMAIN]
    + [frozenset(DOMAIN[:2]), frozenset(DOMAIN[2:5]), frozenset(DOMAIN)]
    + [frozenset(), frozenset({"absent"})]
)


def _assert_postings_match_scan(workspace) -> None:
    core = workspace.core
    assert workspace.n == core.num_vertices
    for keywords in KEYWORD_SETS:
        expected = {
            vertex
            for vertex in range(core.num_vertices)
            if not keywords.isdisjoint(core.keywords_of(vertex))
        }
        assert workspace.qualified(keywords) == expected, sorted(keywords)


def _fast_engine(graph, **overrides) -> InfluentialCommunityEngine:
    """A fast engine whose updates always take the incremental path."""
    config = EngineConfig(
        max_radius=3, thresholds=(0.1, 0.2), fanout=3, leaf_capacity=4,
        backend="fast", damage_threshold=1.0, **overrides,
    )
    return InfluentialCommunityEngine.build(graph, config=config, validate=False)


def _arrivals(graph, rng: random.Random, count: int = 4) -> UpdateBatch:
    """Keyword-carrying new vertices, each closing a triangle on an existing edge."""
    edits = []
    for index, (u, v) in enumerate(rng.sample(sorted(graph.edges(), key=repr), count)):
        arrival = f"arrival{index}"
        edits.append(EdgeUpdate.insert(u, arrival, 0.5, keywords_v=rng.sample(DOMAIN, 2)))
        edits.append(EdgeUpdate.insert(v, arrival, 0.5))
    return UpdateBatch(edits)


@pytest.mark.parametrize("kind", ("planted-str", "smallworld-tuple"))
def test_postings_on_a_fresh_workspace(kind):
    _assert_postings_match_scan(CSRWorkspace(freeze(_graph(kind, 5))))


@pytest.mark.parametrize("seed", range(3))
def test_postings_after_engine_updates_intern_new_vertices(seed):
    fast = _fast_engine(_graph("planted-str", seed))
    workspace = fast._workspace()
    workspace.qualified(frozenset(DOMAIN))  # build the postings before the edits
    report = fast.apply_updates(_arrivals(fast.graph, random.Random(seed)))
    assert report.mode == "incremental" and report.new_vertices == 4
    assert not report.compacted
    # The same workspace absorbed the arrivals through sync().
    assert fast._workspace() is workspace
    _assert_postings_match_scan(workspace)


def test_postings_after_compaction_swaps_the_workspace():
    fast = _fast_engine(_graph("planted-str", 3), compact_dirt_ratio=1e-9)
    before = fast._workspace()
    before.qualified(frozenset(DOMAIN))
    report = fast.apply_updates(_arrivals(fast.graph, random.Random(3)))
    assert report.mode == "incremental" and report.compacted
    after = fast._workspace()
    assert after is not before
    _assert_postings_match_scan(after)


def test_postings_after_rebind_onto_an_overlay():
    graph = _graph("planted-str", 4)
    frozen = freeze(graph)
    workspace = CSRWorkspace(frozen)
    workspace.qualified(frozenset(DOMAIN))
    overlay = DeltaCSR(frozen)
    workspace.rebind(overlay)
    _assert_postings_match_scan(workspace)
    script = _overlay_script(graph, random.Random(4))
    script.validate_against(overlay)
    script.apply_to(overlay)
    workspace.sync()
    assert overlay.num_vertices > frozen.num_vertices
    _assert_postings_match_scan(workspace)


def _assert_own_bits_in_every_ball(engine) -> None:
    """Each record's keyword bits are its vertex's, and lie in every ball vector.

    The fast leaf scan skips Lemma 1's Bloom check for Q members on this
    ground: a centre carrying a query keyword has that keyword's bit in its
    own vector, hence in its r-hop ball vector, so the check cannot fail.
    """
    precomputed = engine.index.precomputed
    assert set(precomputed.vertex_aggregates) == set(engine.graph.vertices())
    for vertex in engine.graph.vertices():
        record = engine.index.vertex_aggregates(vertex)
        own = record.keyword_bitvector
        assert own == BitVector.from_keywords(engine.graph.keywords(vertex), precomputed.num_bits)
        for radius in precomputed.supported_radii():
            assert record.for_radius(radius).bitvector.contains_all(own), (vertex, radius)


@pytest.mark.parametrize("backend", ("reference", "fast"))
@pytest.mark.parametrize("seed", range(2))
def test_own_keyword_bits_lie_in_every_ball_after_updates(backend, seed):
    graph = _graph("planted-str", seed)
    config = EngineConfig(
        max_radius=3, thresholds=(0.1, 0.2), fanout=3, leaf_capacity=4,
        backend=backend, damage_threshold=1.0,
    )
    engine = InfluentialCommunityEngine.build(graph, config=config, validate=False)
    _assert_own_bits_in_every_ball(engine)
    rng = random.Random(seed)
    for script in (_overlay_script(engine.graph, rng), _arrivals(engine.graph, rng)):
        report = engine.apply_updates(script)
        # Both scripts intern keyword-carrying new vertices.
        assert report.mode == "incremental" and report.new_vertices
        _assert_own_bits_in_every_ball(engine)


def test_postings_on_a_store_opened_engine(tmp_path):
    fast = _fast_engine(_graph("smallworld-str", 6))
    path = tmp_path / "qualified.repro-store"
    fast.checkpoint_store(str(path))
    opened = InfluentialCommunityEngine.from_store(str(path))
    assert opened.config.backend == "fast"
    _assert_postings_match_scan(opened._workspace())
    _assert_own_bits_in_every_ball(opened)
    report = opened.apply_updates(_arrivals(opened.graph, random.Random(6)))
    assert report.mode == "incremental" and report.new_vertices == 4
    _assert_postings_match_scan(opened._workspace())
    _assert_own_bits_in_every_ball(opened)


@pytest.mark.parametrize("kind", ("planted-str", "planted-tuple", "smallworld-str"))
@pytest.mark.parametrize("seed", range(3))
def test_qualified_truss_matches_maximal_ktruss(kind, seed):
    graph = _graph(kind, seed)
    workspace = CSRWorkspace(freeze(graph))
    id_of = workspace.core.table.id_of
    nonempty = 0
    for keywords in _keyword_sets(seed) + [frozenset()]:
        members = workspace.qualified(keywords)
        induced = SubgraphView(graph, map(id_of, members))
        for k in KS:
            components = workspace.qualified_truss(members, k)
            truss = maximal_ktruss(induced, k)
            assert frozenset(map(id_of, components)) == truss.vertices, (sorted(keywords), k)
            # The components partition T_Q: one shared frozenset per
            # component, holding exactly the vertices that map to it.
            for vertex, component in components.items():
                assert vertex in component
                assert all(components[member] is component for member in component)
                assert frozenset(map(id_of, component)) == ktruss_component_of(
                    induced, k, id_of(vertex)
                ), (sorted(keywords), k, id_of(vertex))
            nonempty += bool(components)
    assert nonempty, "the sweep should include non-empty qualified cores"


def test_fast_processor_given_only_a_workspace_matches_reference():
    graph = _graph("planted-str", 1)
    reference, _ = _engines(graph)
    processor = TopLProcessor(
        graph,
        index=reference.index,
        backend="fast",
        workspace=CSRWorkspace(freeze(graph)),
    )
    scored = 0
    for keywords in _keyword_sets(1):
        query = make_topl_query(keywords, k=3, radius=2, theta=0.2, top_l=3)
        ours, theirs = processor.query(query), reference.topl(query)
        assert [(c.center, c.vertices, c.score) for c in ours] == [
            (c.center, c.vertices, c.score) for c in theirs
        ]
        assert _work(ours.statistics) == _work(theirs.statistics)
        scored += ours.statistics.communities_scored
    assert scored, "the queries should score at least one community"
