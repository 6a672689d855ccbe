"""Kernel-level cross-backend equivalence: supports, trussness, propagation.

Every fast kernel must reproduce its reference counterpart *exactly* —
identical ints for supports and trussness, bit-identical floats for
propagation probabilities and influential scores — on seeded random graphs
and on hypothesis-generated ones.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from repro.fastgraph import (
    community_propagation_csr,
    edge_supports_csr,
    freeze,
    truss_decomposition_csr,
)
from repro.fastgraph.delta import DeltaCSR
from repro.graph.core import AdjacencyCore
from repro.fastgraph.kernels import CSRWorkspace, supports_as_dict
from repro.fastgraph.offline import RefreshCache
from repro.graph.generators import erdos_renyi_graph, planted_community_graph
from repro.graph.keyword_assignment import assign_keywords
from repro.graph.traversal import bfs_distances
from repro.influence.propagation import community_propagation
from repro.truss.decomposition import truss_decomposition
from repro.truss.support import edge_support

from tests.fastgraph.test_seed_extraction_csr import _graph, _overlay_script
from tests.property.strategies import social_networks


def seeded_graph(seed: int):
    rng = random.Random(seed)
    if seed % 3 == 0:
        graph = planted_community_graph(
            [rng.randint(4, 9) for _ in range(rng.randint(2, 4))],
            intra_probability=0.5,
            inter_probability=0.05,
            rng=seed,
        )
    else:
        graph = erdos_renyi_graph(
            rng.randint(4, 24),
            edge_probability=rng.uniform(0.1, 0.6),
            rng=seed,
            weight_range=(0.05, 0.95),
        )
    assign_keywords(graph, keywords_per_vertex=3, domain_size=20, rng=seed)
    return rng, graph


@pytest.mark.parametrize("seed", range(20))
def test_supports_match_reference(seed):
    _, graph = seeded_graph(seed)
    csr = freeze(graph)
    assert supports_as_dict(csr, edge_supports_csr(csr)) == edge_support(graph)


@pytest.mark.parametrize("seed", range(20))
def test_trussness_matches_reference(seed):
    _, graph = seeded_graph(seed)
    reference = truss_decomposition(graph)
    fast = truss_decomposition_csr(freeze(graph))
    assert fast.edge_trussness == reference.edge_trussness
    assert fast.vertex_trussness == reference.vertex_trussness


@pytest.mark.parametrize("seed", range(20))
def test_truss_backend_switch_on_decomposition(seed):
    _, graph = seeded_graph(seed)
    assert (
        truss_decomposition_csr(graph.freeze()).edge_trussness
        == truss_decomposition(graph).edge_trussness
    )


@pytest.mark.parametrize("seed", range(20))
def test_bfs_balls_match_reference(seed):
    _, graph = seeded_graph(seed)
    csr = freeze(graph)
    workspace = CSRWorkspace(csr)
    for vertex in list(graph.vertices())[:5]:
        for radius in (1, 2, 3):
            reference = bfs_distances(graph, vertex, max_depth=radius)
            order = workspace.bfs_ball(csr.table.index_of(vertex), radius)
            fast = {csr.table.id_of(v): workspace.dist[v] for v in order}
            assert fast == reference


@pytest.mark.parametrize("seed", range(20))
def test_propagation_bit_identical(seed):
    rng, graph = seeded_graph(seed)
    csr = freeze(graph)
    workspace = CSRWorkspace(csr)
    vertices = list(graph.vertices())
    for theta in (0.0, 0.1, 0.35):
        seeds = frozenset(rng.sample(vertices, rng.randint(1, min(4, len(vertices)))))
        reference = community_propagation(graph, seeds, theta)
        fast = community_propagation_csr(csr, seeds, theta, workspace=workspace)
        assert fast.cpp == reference.cpp, (seed, theta)
        # Bit-identical float sum, not just approximate equality.
        assert fast.score == reference.score, (seed, theta)
        assert fast.vertices == reference.vertices
        assert fast.threshold == reference.threshold


@pytest.mark.parametrize("seed", range(12))
def test_nested_propagation_values_match_per_radius_runs(seed):
    """The merged rows of each nested ball equal an independent propagation."""
    _, graph = seeded_graph(seed)
    if graph.num_edges() == 0:
        pytest.skip("edgeless graph")
    csr = freeze(graph)
    workspace = CSRWorkspace(csr)
    centre = csr.table.index_of(next(iter(graph.vertices())))
    order, cuts = _nested_cuts(workspace, centre, 3)
    merged = RefreshCache().merged_values(workspace, order, cuts, 0.1)
    for radius, cut in enumerate(cuts, start=1):
        seeds = frozenset(csr.table.id_of(v) for v in order[:cut])
        reference = community_propagation(graph, seeds, 0.1)
        assert merged[radius - 1] == sorted(reference.cpp.values(), reverse=True), (
            seed,
            radius,
        )


def _nested_cuts(workspace, centre: int, max_radius: int) -> tuple[list, list]:
    order = list(workspace.bfs_ball(centre, max_radius))
    dist = workspace.dist
    cuts = [
        sum(1 for vertex in order if dist[vertex] <= radius)
        for radius in range(1, max_radius + 1)
    ]
    return order, cuts


@pytest.mark.parametrize("overlay", (False, True), ids=("csr", "overlay"))
@pytest.mark.parametrize(
    "kind", ("planted-str", "planted-tuple", "smallworld-str", "smallworld-tuple")
)
@pytest.mark.parametrize("seed", range(2))
def test_row_merge_matches_nested_propagation(seed, kind, overlay):
    """Max-merged single-source ``upp`` rows == a propagation per nested ball.

    Every fast record derives its score-bound values from cached rows
    (:meth:`~repro.fastgraph.offline.RefreshCache.merged_values`); the
    lists must equal the reference ``community_propagation`` of each of a
    centre's nested balls, sorted descending, float for float — on every
    centre, and over a ``DeltaCSR`` overlay after mixed edits.
    """
    graph = _graph(kind, seed)
    frozen = freeze(graph)
    workspace = CSRWorkspace(frozen)
    core = frozen
    if overlay:
        core = DeltaCSR(frozen)
        workspace.rebind(core)
        script = _overlay_script(graph, random.Random(seed))
        script.validate_against(core)
        script.apply_to(core)
        script.apply_to(AdjacencyCore(graph))
        workspace.sync()
    id_of = core.table.id_of
    for theta in (0.0, 0.1, 0.35):
        cache = RefreshCache()  # rows are per-theta; shared by every centre
        expected_of: dict = {}  # nested balls repeat across centres
        for centre in range(workspace.n):
            order, cuts = _nested_cuts(workspace, centre, 3)
            merged = cache.merged_values(workspace, order, cuts, theta)
            for radius, cut in enumerate(cuts, start=1):
                seeds = frozenset(map(id_of, order[:cut]))
                if seeds not in expected_of:
                    cpp = community_propagation(graph, seeds, theta).cpp
                    expected_of[seeds] = sorted(cpp.values(), reverse=True)
                assert merged[radius - 1] == expected_of[seeds], (kind, theta, centre, radius)


@settings(max_examples=40, deadline=None)
@given(graph=social_networks(min_vertices=2, max_vertices=14))
def test_hypothesis_kernels_match_reference(graph):
    csr = freeze(graph)
    assert supports_as_dict(csr, edge_supports_csr(csr)) == edge_support(graph)
    fast = truss_decomposition_csr(csr)
    reference = truss_decomposition(graph)
    assert fast.edge_trussness == reference.edge_trussness
    assert fast.vertex_trussness == reference.vertex_trussness
    seeds = frozenset(list(graph.vertices())[:2])
    for theta in (0.0, 0.2):
        ours = community_propagation_csr(csr, seeds, theta)
        theirs = community_propagation(graph, seeds, theta)
        assert ours.cpp == theirs.cpp
        assert ours.score == theirs.score
