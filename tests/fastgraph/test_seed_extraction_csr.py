"""Seed-community extraction on the CSR core vs the reference extractor.

:meth:`~repro.fastgraph.kernels.CSRWorkspace.seed_community` is the fast
backend's online kernel.  Mapped back through ``table.id_of``, its answer
must ``==`` what :func:`~repro.query.seed.extract_seed_community` returns
(``None`` alike) for every centre and every ``(k, r)``, on seeded planted
and small-world graphs with string and tuple vertex ids, on a mutated
:class:`~repro.fastgraph.delta.DeltaCSR` overlay, and on a strip whose
centres all decline the component shortcut and fall back to the fixpoint.
The kernel answers from the T_Q components of
:meth:`~repro.fastgraph.kernels.CSRWorkspace.qualified_truss`, built here
from Q by a ``keywords_of`` scan.  A fresh workspace defers the
``neighbor_ints`` rows the kernel sweeps, so the peel must build them.

On top of the answers, the fast and reference backends must do the same
*work*: every :class:`~repro.query.results.QueryStatistics` counter agrees
(a centre outside T_Q counts as ``pruned_by_radius``, exactly like an
empty extraction), except the wall clock and the cache counters.
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import InfluentialCommunityEngine
from repro.dynamic.updates import EdgeUpdate, UpdateBatch
from repro.fastgraph.csr import freeze
from repro.fastgraph.delta import DeltaCSR
from repro.graph.core import AdjacencyCore
from repro.fastgraph.kernels import CSRWorkspace
from repro.graph.generators import newman_watts_strogatz_graph, planted_community_graph
from repro.graph.social_network import SocialNetwork
from repro.pruning.stats import PruningConfig
from repro.query.params import make_dtopl_query, make_topl_query
from repro.query.seed import extract_seed_community

KS = (2, 3, 4, 5)
RADII = (1, 2, 3)
DOMAIN = ("art", "books", "cars", "dogs", "eggs", "film")
#: Counters that legitimately differ between backends.
UNCOMPARED = ("elapsed_seconds", "propagation_cache_hits", "propagation_cache_misses")


def _relabel(graph: SocialNetwork, label) -> SocialNetwork:
    out = SocialNetwork(name=graph.name)
    for vertex in graph.vertices():
        out.add_vertex(label(vertex), graph.keywords(vertex))
    for u, v in graph.edges():
        out.add_edge(label(u), label(v), graph.probability(u, v), graph.probability(v, u))
    return out


def _graph(kind: str, seed: int) -> SocialNetwork:
    """A seeded planted or small-world graph with string or tuple ids."""
    rng = random.Random(seed)
    if kind.startswith("planted"):
        graph = planted_community_graph(
            [rng.randint(7, 11) for _ in range(3)],
            intra_probability=0.6, inter_probability=0.06, rng=seed,
        )
    else:
        graph = newman_watts_strogatz_graph(32, ring_neighbors=6, rng=seed)
    for vertex in list(graph.vertices()):
        graph.set_keywords(vertex, rng.sample(DOMAIN, 2))
    if kind.endswith("tuple"):
        return _relabel(graph, lambda v: ("member", v % 5, v))
    return _relabel(graph, lambda v: f"v{v}")


def _components(workspace, query) -> dict:
    """T_Q's component map for ``query``.

    Q is an O(V) ``keywords_of`` scan, independent of the postings.
    """
    core = workspace.core
    members = {
        vertex
        for vertex in range(core.num_vertices)
        if not query.keywords.isdisjoint(core.keywords_of(vertex))
    }
    return workspace.qualified_truss(members, query.k)


def _kernel_answer(workspace, center, query, components=None):
    """The kernel's answer for ``center`` as a frozenset of vertex ids, or ``None``."""
    table = workspace.core.table
    if components is None:
        components = _components(workspace, query)
    members = workspace.seed_community(
        table.index_of(center), query.radius, query.k, components
    )
    return frozenset(map(table.id_of, members)) if members else None


def _assert_every_centre_matches(graph, workspace, keyword_sets) -> int:
    """Compare kernel and reference on every centre and (k, r); return the non-empty count."""
    found = 0
    for keywords in keyword_sets:
        for k in KS:
            for radius in RADII:
                query = make_topl_query(keywords, k=k, radius=radius, theta=0.2, top_l=3)
                components = _components(workspace, query)
                for center in graph.vertices():
                    expected = extract_seed_community(graph, center, query)
                    answer = _kernel_answer(workspace, center, query, components)
                    assert answer == expected, (center, sorted(keywords), k, radius)
                    found += expected is not None
    return found


def _keyword_sets(seed: int) -> list:
    rng = random.Random(seed + 101)
    return [frozenset(rng.sample(DOMAIN, size)) for size in (1, 2, 3)]


@pytest.mark.parametrize("kind", ("planted-str", "planted-tuple", "smallworld-str", "smallworld-tuple"))
@pytest.mark.parametrize("seed", range(3))
def test_every_centre_matches_reference(kind, seed):
    graph = _graph(kind, seed)
    workspace = CSRWorkspace(freeze(graph))
    # A fresh workspace defers the per-vertex rows the kernel sweeps.
    assert not workspace.neighbor_ints
    found = _assert_every_centre_matches(graph, workspace, _keyword_sets(seed))
    assert found, "the sweep should include non-empty communities"


def test_special_centres():
    graph = SocialNetwork(name="special")
    for vertex in "abcd":
        graph.add_vertex(vertex, {"art"})
    graph.add_vertex("plain", {"dogs"})
    graph.add_vertex("alone", {"art"})
    graph.add_vertex("pair", {"art"})
    for u, v in ("ab", "ac", "ad", "bc", "bd", "cd"):
        graph.add_edge(u, v, 0.5)
    graph.add_edge("a", "plain", 0.5)
    graph.add_edge("b", "plain", 0.5)
    graph.add_edge("d", "pair", 0.5)
    workspace = CSRWorkspace(freeze(graph))

    def both(center, k, radius=2):
        query = make_topl_query({"art"}, k=k, radius=radius, theta=0.2, top_l=1)
        expected = extract_seed_community(graph, center, query)
        assert _kernel_answer(workspace, center, query) == expected
        return expected

    # A centre without a query keyword, and an isolated qualified centre.
    assert both("plain", 3) is None
    assert both("alone", 2) is None
    # k = 2 keeps every edge: the whole qualified component within r hops.
    assert both("pair", 2) == frozenset("abcd") | {"pair"}
    assert both("pair", 2, radius=1) == frozenset({"d", "pair"})
    # The qualified 4-clique is a 4-truss; "pair" hangs off it.
    assert both("a", 4) == frozenset("abcd")
    assert both("pair", 3) is None
    assert both("a", 5) is None


def test_component_shortcut_falls_back_on_a_long_strip():
    """A connected 3-truss longer than 2r: the shortcut declines, the fixpoint answers.

    The triangle strip ``i ~ i+1, i ~ i+2`` is one T_Q component, but with
    ``r = 1`` no centre reaches all of it, so every centre takes the
    fallback from its G[K] ball and must still ``==`` the reference.
    """
    graph = SocialNetwork(name="strip")
    length = 9
    for vertex in range(length):
        graph.add_vertex(vertex, {"art"})
    for vertex in range(length):
        for step in (1, 2):
            if vertex + step < length:
                graph.add_edge(vertex, vertex + step, 0.5)
    workspace = CSRWorkspace(freeze(graph))
    table = workspace.core.table
    query = make_topl_query({"art"}, k=3, radius=1, theta=0.2, top_l=1)
    components = _components(workspace, query)
    assert len(set(map(id, components.values()))) == 1
    for center in graph.vertices():
        expected = extract_seed_community(graph, center, query)
        assert _kernel_answer(workspace, center, query, components) == expected
        found = workspace.seed_community(
            table.index_of(center), query.radius, query.k, components
        )
        cluster = components[table.index_of(center)]
        # The shortcut declined: a fresh strict, non-empty subset of K.
        assert found is not cluster and found and set(found) < cluster


def _overlay_script(graph: SocialNetwork, rng: random.Random) -> UpdateBatch:
    """Mixed deletes, inserts among existing vertices, and keyword-carrying arrivals."""
    vertices = sorted(graph.vertices(), key=repr)
    edges = sorted(graph.edges(), key=repr)
    edits = [EdgeUpdate.delete(u, v) for u, v in rng.sample(edges, 6)]
    deleted = {frozenset(edge.key) for edge in edits}
    inserted = set()
    while len(inserted) < 8:
        u, v = rng.sample(vertices, 2)
        key = frozenset((u, v))
        if not graph.has_edge(u, v) and key not in inserted and key not in deleted:
            inserted.add(key)
            edits.append(EdgeUpdate.insert(u, v, rng.uniform(0.1, 0.9)))
    # Each arrival closes triangles on an existing edge, so it can join a truss.
    for index, (u, v) in enumerate(rng.sample(edges, 4)):
        if frozenset((u, v)) in deleted:
            continue
        arrival = f"new{index}"
        keywords = rng.sample(DOMAIN, 2)
        edits.append(EdgeUpdate.insert(u, arrival, 0.4, keywords_v=keywords))
        edits.append(EdgeUpdate.insert(v, arrival, 0.6))
    return UpdateBatch(edits)


@pytest.mark.parametrize("seed", range(3))
def test_overlay_after_mixed_edits(seed):
    graph = _graph("planted-str", seed)
    frozen = freeze(graph)
    workspace = CSRWorkspace(frozen)
    # The engine's path: wrap the snapshot, re-bind the workspace, edit, sync.
    overlay = DeltaCSR(frozen)
    workspace.rebind(overlay)
    script = _overlay_script(graph, random.Random(seed))
    script.validate_against(overlay)
    script.apply_to(overlay)
    script.apply_to(AdjacencyCore(graph))
    assert workspace.sync() > 0
    assert overlay.num_vertices > frozen.num_vertices
    _assert_every_centre_matches(graph, workspace, _keyword_sets(seed))


def _engines(graph):
    config = dict(max_radius=3, thresholds=(0.1, 0.2), fanout=3, leaf_capacity=4)
    reference = InfluentialCommunityEngine.build(
        graph, config=EngineConfig(**config), validate=False
    )
    fast = InfluentialCommunityEngine.build(
        graph.copy(),
        config=EngineConfig(**config, backend="fast"),
        validate=False,
    )
    return reference, fast


def _work(statistics) -> dict:
    counters = statistics.as_dict()
    for name in UNCOMPARED:
        counters.pop(name)
    return counters


@pytest.mark.parametrize(
    "pruning",
    (PruningConfig.all_enabled(), PruningConfig.keyword_only(), PruningConfig.none_enabled()),
    ids=lambda config: config.label(),
)
@pytest.mark.parametrize("seed", range(4))
def test_work_counters_equal_across_backends(seed, pruning):
    graph = _graph("planted-str" if seed % 2 else "smallworld-tuple", seed)
    reference, fast = _engines(graph)
    rng = random.Random(seed)
    extractions = 0
    for _ in range(4):
        keywords = frozenset(rng.sample(DOMAIN, rng.randint(1, 3)))
        query = make_topl_query(
            keywords, k=rng.choice(KS), radius=rng.choice(RADII), theta=0.2, top_l=3
        )
        ours, theirs = fast.topl(query, pruning=pruning), reference.topl(query, pruning=pruning)
        assert [(c.center, c.vertices, c.score) for c in ours] == [
            (c.center, c.vertices, c.score) for c in theirs
        ]
        assert _work(ours.statistics) == _work(theirs.statistics), (seed, query)
        extractions += ours.statistics.pruned_by_radius + ours.statistics.communities_scored
        dquery = make_dtopl_query(
            keywords, k=query.k, radius=query.radius, theta=0.2, top_l=2, candidate_factor=2
        )
        ours, theirs = fast.dtopl(dquery, pruning=pruning), reference.dtopl(dquery, pruning=pruning)
        assert [c.vertices for c in ours] == [c.vertices for c in theirs]
        assert ours.diversity_score == theirs.diversity_score
        assert _work(ours.statistics) == _work(theirs.statistics), (seed, dquery)
    assert extractions, "the queries should reach the extraction step"


def test_work_counters_equal_after_engine_updates():
    graph = _graph("planted-tuple", 7)
    reference, fast = _engines(graph)
    script = _overlay_script(graph, random.Random(7))
    reference.apply_updates(script)
    fast.apply_updates(script)
    for keywords in _keyword_sets(7):
        query = make_topl_query(keywords, k=3, radius=2, theta=0.1, top_l=3)
        ours, theirs = fast.topl(query), reference.topl(query)
        assert [c.vertices for c in ours] == [c.vertices for c in theirs]
        assert _work(ours.statistics) == _work(theirs.statistics)
