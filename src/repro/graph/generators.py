"""Synthetic social-network generators.

Section VIII-A of the paper builds its synthetic workloads from
Newman–Watts–Strogatz (NWS) small-world graphs: a ring of ``|V(G)|`` vertices,
each connected to its ``m`` nearest ring neighbours, with an extra random
shortcut added per edge with probability ``mu`` (paper defaults ``m = 6`` and
``mu = 0.167``).  Edge propagation probabilities are drawn uniformly from
``[0.5, 0.6)``.

This module reimplements that generator from scratch (no ``networkx``
dependency) plus a few companions — Erdős–Rényi, Barabási–Albert and a planted
community generator — used by the extra ablations, the test-suite and the
dataset stand-ins in :mod:`repro.graph.datasets`.

All generators take an explicit :class:`random.Random` (or an integer seed)
so results are reproducible.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from repro._rng import RandomLike, resolve_rng
from repro.exceptions import GraphError
from repro.graph.social_network import SocialNetwork

#: Paper defaults for the NWS synthetic graphs (Section VIII-A).
DEFAULT_RING_NEIGHBORS = 6
DEFAULT_SHORTCUT_PROBABILITY = 0.167
#: Paper default range for edge propagation probabilities.
DEFAULT_WEIGHT_RANGE = (0.5, 0.6)


def _draw_probability(rng: random.Random, weight_range: tuple[float, float]) -> float:
    low, high = weight_range
    if not 0.0 <= low <= high <= 1.0:
        raise GraphError(f"weight range must satisfy 0 <= low <= high <= 1, got {weight_range}")
    return rng.uniform(low, high)


def newman_watts_strogatz_graph(
    num_vertices: int,
    ring_neighbors: int = DEFAULT_RING_NEIGHBORS,
    shortcut_probability: float = DEFAULT_SHORTCUT_PROBABILITY,
    weight_range: tuple[float, float] = DEFAULT_WEIGHT_RANGE,
    rng: RandomLike = None,
    name: str = "nws",
) -> SocialNetwork:
    """Generate a Newman–Watts–Strogatz small-world social network.

    Parameters
    ----------
    num_vertices:
        Number of vertices ``|V(G)|``; vertices are labelled ``0..n-1``.
    ring_neighbors:
        Each vertex is connected to its ``ring_neighbors`` nearest neighbours
        on the ring (``m`` in the paper; must be even and ``>= 2``).
    shortcut_probability:
        Probability ``mu`` of adding a random shortcut per ring edge.
    weight_range:
        Interval from which directional propagation probabilities are drawn
        (uniformly, independently per direction).
    rng:
        Seed or :class:`random.Random` for reproducibility.
    name:
        Name recorded on the resulting graph.
    """
    if num_vertices <= 0:
        raise GraphError(f"num_vertices must be positive, got {num_vertices}")
    if ring_neighbors < 2 or ring_neighbors % 2 != 0:
        raise GraphError(f"ring_neighbors must be an even integer >= 2, got {ring_neighbors}")
    if not 0.0 <= shortcut_probability <= 1.0:
        raise GraphError(
            f"shortcut_probability must be in [0, 1], got {shortcut_probability}"
        )
    generator = resolve_rng(rng)
    graph = SocialNetwork(name=name)
    for v in range(num_vertices):
        graph.add_vertex(v)

    half = ring_neighbors // 2
    # Ring lattice: connect each vertex to its `half` clockwise neighbours.
    for v in range(num_vertices):
        for offset in range(1, half + 1):
            w = (v + offset) % num_vertices
            if v != w and not graph.has_edge(v, w):
                graph.add_edge(
                    v,
                    w,
                    _draw_probability(generator, weight_range),
                    _draw_probability(generator, weight_range),
                )
    # Newman–Watts shortcuts: for each ring edge, add an extra random edge
    # from its source with probability `shortcut_probability` (edges are added
    # on top of the lattice, never rewired, matching the NWS variant).
    ring_edges = list(graph.edges())
    for u, _ in ring_edges:
        if generator.random() < shortcut_probability:
            w = generator.randrange(num_vertices)
            if w != u and not graph.has_edge(u, w):
                graph.add_edge(
                    u,
                    w,
                    _draw_probability(generator, weight_range),
                    _draw_probability(generator, weight_range),
                )
    return graph


def ring_lattice_graph(
    num_vertices: int,
    ring_neighbors: int = DEFAULT_RING_NEIGHBORS,
    weight_range: tuple[float, float] = DEFAULT_WEIGHT_RANGE,
    rng: RandomLike = None,
    name: str = "ring-lattice",
) -> SocialNetwork:
    """Generate a plain ring lattice (NWS with no shortcuts)."""
    return newman_watts_strogatz_graph(
        num_vertices,
        ring_neighbors=ring_neighbors,
        shortcut_probability=0.0,
        weight_range=weight_range,
        rng=rng,
        name=name,
    )


def erdos_renyi_graph(
    num_vertices: int,
    edge_probability: float,
    weight_range: tuple[float, float] = DEFAULT_WEIGHT_RANGE,
    rng: RandomLike = None,
    name: str = "erdos-renyi",
) -> SocialNetwork:
    """Generate a G(n, p) Erdős–Rényi social network."""
    if num_vertices <= 0:
        raise GraphError(f"num_vertices must be positive, got {num_vertices}")
    if not 0.0 <= edge_probability <= 1.0:
        raise GraphError(f"edge_probability must be in [0, 1], got {edge_probability}")
    generator = resolve_rng(rng)
    graph = SocialNetwork(name=name)
    for v in range(num_vertices):
        graph.add_vertex(v)
    for u in range(num_vertices):
        for v in range(u + 1, num_vertices):
            if generator.random() < edge_probability:
                graph.add_edge(
                    u,
                    v,
                    _draw_probability(generator, weight_range),
                    _draw_probability(generator, weight_range),
                )
    return graph


def barabasi_albert_graph(
    num_vertices: int,
    edges_per_vertex: int = 3,
    weight_range: tuple[float, float] = DEFAULT_WEIGHT_RANGE,
    rng: RandomLike = None,
    name: str = "barabasi-albert",
) -> SocialNetwork:
    """Generate a Barabási–Albert preferential-attachment social network.

    Used by the dataset stand-ins to approximate the heavy-tailed degree
    profile of real co-authorship / co-purchase graphs.
    """
    if edges_per_vertex < 1:
        raise GraphError(f"edges_per_vertex must be >= 1, got {edges_per_vertex}")
    if num_vertices <= edges_per_vertex:
        raise GraphError(
            "num_vertices must exceed edges_per_vertex "
            f"({num_vertices} <= {edges_per_vertex})"
        )
    generator = resolve_rng(rng)
    graph = SocialNetwork(name=name)
    # Start from a small clique so the first attachments have targets.
    initial = edges_per_vertex + 1
    for v in range(initial):
        graph.add_vertex(v)
    for u in range(initial):
        for v in range(u + 1, initial):
            graph.add_edge(
                u,
                v,
                _draw_probability(generator, weight_range),
                _draw_probability(generator, weight_range),
            )
    # repeated_targets holds one entry per edge endpoint, so sampling from it
    # is degree-proportional.
    repeated_targets: list[int] = []
    for u, v in graph.edges():
        repeated_targets.extend((u, v))
    for v in range(initial, num_vertices):
        graph.add_vertex(v)
        targets: set[int] = set()
        while len(targets) < edges_per_vertex:
            targets.add(generator.choice(repeated_targets))
        for target in targets:
            graph.add_edge(
                v,
                target,
                _draw_probability(generator, weight_range),
                _draw_probability(generator, weight_range),
            )
            repeated_targets.extend((v, target))
    return graph


def planted_community_graph(
    community_sizes: Sequence[int],
    intra_probability: float = 0.6,
    inter_probability: float = 0.01,
    weight_range: tuple[float, float] = DEFAULT_WEIGHT_RANGE,
    rng: RandomLike = None,
    name: str = "planted-communities",
) -> SocialNetwork:
    """Generate a graph with planted dense communities (stochastic block model).

    Handy for tests and case studies: communities are dense enough to contain
    k-trusses, while the sparse inter-community edges carry the influence
    propagation between them.
    """
    if not community_sizes:
        raise GraphError("community_sizes must be non-empty")
    if any(size <= 0 for size in community_sizes):
        raise GraphError(f"community sizes must be positive, got {community_sizes}")
    generator = resolve_rng(rng)
    graph = SocialNetwork(name=name)
    blocks: list[list[int]] = []
    next_id = 0
    for size in community_sizes:
        block = list(range(next_id, next_id + size))
        next_id += size
        blocks.append(block)
        for v in block:
            graph.add_vertex(v)
    for b, block in enumerate(blocks):
        for i, u in enumerate(block):
            for v in block[i + 1:]:
                if generator.random() < intra_probability:
                    graph.add_edge(
                        u,
                        v,
                        _draw_probability(generator, weight_range),
                        _draw_probability(generator, weight_range),
                    )
        for other in blocks[b + 1:]:
            for u in block:
                for v in other:
                    if generator.random() < inter_probability:
                        graph.add_edge(
                            u,
                            v,
                            _draw_probability(generator, weight_range),
                            _draw_probability(generator, weight_range),
                        )
    return graph


def bipartite_ish_graph(
    num_left: int,
    num_right: int,
    edges_per_right: int = 2,
    closure_probability: float = 0.15,
    weight_range: tuple[float, float] = DEFAULT_WEIGHT_RANGE,
    rng: RandomLike = None,
    name: str = "bipartite-ish",
) -> SocialNetwork:
    """Generate a *mostly* bipartite two-mode social network.

    Models user-item style graphs (customers × products, authors × venues):
    left vertices ``0 .. num_left-1`` form one mode, right vertices attach to
    ``edges_per_right`` left vertices each with preferential attachment
    (popular left hubs accumulate degree).  A pure bipartite graph has no
    triangles — and therefore no k-trusses beyond k = 2 — so with
    ``closure_probability`` per right vertex one pair of its left neighbours
    is linked directly, the "ish" that plants sparse triangle structure the
    truss machinery can bite on.
    """
    if num_left < 2 or num_right < 1:
        raise GraphError(
            f"bipartite-ish graphs need >= 2 left and >= 1 right vertices, "
            f"got {num_left} x {num_right}"
        )
    if edges_per_right < 1 or edges_per_right > num_left:
        raise GraphError(
            f"edges_per_right must be in [1, num_left], got {edges_per_right}"
        )
    if not 0.0 <= closure_probability <= 1.0:
        raise GraphError(
            f"closure_probability must be in [0, 1], got {closure_probability}"
        )
    generator = resolve_rng(rng)
    graph = SocialNetwork(name=name)
    left = list(range(num_left))
    for v in range(num_left + num_right):
        graph.add_vertex(v)
    # One entry per attachment endpoint keeps sampling degree-proportional;
    # seeding with every left vertex once gives zero-degree hubs a chance.
    weighted_left: list[int] = list(left)
    for r in range(num_left, num_left + num_right):
        targets: set[int] = set()
        while len(targets) < edges_per_right:
            targets.add(generator.choice(weighted_left))
        for target in sorted(targets):
            graph.add_edge(
                r,
                target,
                _draw_probability(generator, weight_range),
                _draw_probability(generator, weight_range),
            )
            weighted_left.append(target)
        if len(targets) >= 2 and generator.random() < closure_probability:
            u, v = generator.sample(sorted(targets), 2)
            if not graph.has_edge(u, v):
                graph.add_edge(
                    u,
                    v,
                    _draw_probability(generator, weight_range),
                    _draw_probability(generator, weight_range),
                )
    return graph


def complete_graph(
    num_vertices: int,
    weight_range: tuple[float, float] = DEFAULT_WEIGHT_RANGE,
    rng: RandomLike = None,
    name: str = "complete",
) -> SocialNetwork:
    """Generate a complete graph (every pair connected).

    Mostly used in tests: a complete graph on ``n`` vertices is an
    ``n``-truss, which makes truss-related assertions easy to state.
    """
    if num_vertices <= 0:
        raise GraphError(f"num_vertices must be positive, got {num_vertices}")
    generator = resolve_rng(rng)
    graph = SocialNetwork(name=name)
    for v in range(num_vertices):
        graph.add_vertex(v)
    for u in range(num_vertices):
        for v in range(u + 1, num_vertices):
            graph.add_edge(
                u,
                v,
                _draw_probability(generator, weight_range),
                _draw_probability(generator, weight_range),
            )
    return graph


def assign_uniform_weights(
    graph: SocialNetwork,
    weight_range: tuple[float, float] = DEFAULT_WEIGHT_RANGE,
    rng: RandomLike = None,
) -> SocialNetwork:
    """Redraw every directional edge probability uniformly from ``weight_range``.

    Mutates and returns ``graph``; useful when a graph was loaded from disk
    without probabilities.
    """
    generator = resolve_rng(rng)
    for u, v in graph.edges():
        graph.set_probability(u, v, _draw_probability(generator, weight_range))
        graph.set_probability(v, u, _draw_probability(generator, weight_range))
    return graph


#: The TRIVALENCY model's probability levels (influence-maximisation literature).
TRIVALENCY_VALUES = (0.1, 0.01, 0.001)


def assign_weighted_cascade(graph: SocialNetwork) -> SocialNetwork:
    """Set ``p(u -> v) = 1 / deg(v)`` on every directional edge.

    The weighted-cascade model of independent-cascade influence: influence
    concentrates on low-degree targets.  Mutates and returns ``graph``; draws
    nothing at random.
    """
    for u, v in graph.edges():
        graph.set_probability(u, v, 1.0 / graph.degree(v))
        graph.set_probability(v, u, 1.0 / graph.degree(u))
    return graph


def assign_trivalency(graph: SocialNetwork, rng: RandomLike = None) -> SocialNetwork:
    """Draw every directional edge probability uniformly from :data:`TRIVALENCY_VALUES`.

    Mutates and returns ``graph``; ``rng`` is consumed in edge-iteration
    order, ``u -> v`` before ``v -> u``.
    """
    generator = resolve_rng(rng)
    for u, v in graph.edges():
        graph.set_probability(u, v, generator.choice(TRIVALENCY_VALUES))
        graph.set_probability(v, u, generator.choice(TRIVALENCY_VALUES))
    return graph
