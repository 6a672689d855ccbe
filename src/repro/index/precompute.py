"""Offline pre-computation (Algorithm 2).

For every vertex ``v_i`` and every radius ``r`` in ``[1, r_max]`` the offline
phase computes the aggregates used by the pruning rules:

* ``v_i.BV_r`` — the OR of the keyword signatures of every vertex within
  ``r`` hops of ``v_i``;
* ``v_i.ub_sup_r`` — the maximum edge-support upper bound over the edges of
  ``hop(v_i, r)`` (edge supports measured in the full graph, which upper
  bounds the support inside any candidate community, per the discussion after
  Lemma 2);
* ``(sigma_z, theta_z)`` pairs — the influential score of ``hop(v_i, r)``
  itself at each pre-selected threshold ``theta_z``, which upper bounds the
  score of any seed community contained in ``hop(v_i, r)``.

The result is a :class:`PrecomputedData` object consumed by the tree-index
builder and (for the community-level pruning rules) by the online algorithm.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from repro.exceptions import GraphError
from repro.graph.social_network import SocialNetwork, VertexId
from repro.graph.traversal import bfs_distances
from repro.influence.propagation import community_propagation
from repro.keywords.bitvector import DEFAULT_NUM_BITS, BitVector
from repro.truss.decomposition import truss_decomposition
from repro.truss.support import edge_support

#: Default maximum radius for which aggregates are pre-computed (Table III
#: explores r in {1, 2, 3}).
DEFAULT_MAX_RADIUS = 3
#: Default pre-selected influence thresholds theta_1 < ... < theta_m
#: (Table III explores theta in {0.1, 0.2, 0.3}).
DEFAULT_THRESHOLDS = (0.1, 0.2, 0.3)


@dataclass(frozen=True)
class RadiusAggregates:
    """Aggregates of one vertex for one radius ``r``."""

    radius: int
    bitvector: BitVector
    support_upper_bound: int
    score_bounds: tuple[tuple[float, float], ...]  # ascending (theta_z, sigma_z)

    def score_bound_for(self, theta: float) -> float:
        """Return the applicable ``sigma_z`` for an online threshold ``theta``."""
        best = float("inf")
        best_theta = None
        for theta_z, sigma_z in self.score_bounds:
            if theta_z <= theta and (best_theta is None or theta_z > best_theta):
                best_theta = theta_z
                best = sigma_z
        return best


@dataclass(frozen=True)
class VertexAggregates:
    """The pre-computed record ``v_i.R`` of one vertex (all radii).

    ``center_trussness`` is the trussness of the vertex in the full graph — a
    tighter (still sound) form of the support upper bound of Lemma 2: any
    k-truss seed community centred at the vertex contains at least one of its
    incident edges, whose support inside the community cannot exceed its
    trussness in ``G``.  A centre with trussness below ``k`` can therefore be
    pruned without extracting anything (this is the same signal the ATindex
    baseline indexes offline; see DESIGN.md).
    """

    vertex: VertexId
    keyword_bitvector: BitVector
    per_radius: dict  # radius -> RadiusAggregates
    center_trussness: int = 2

    def for_radius(self, radius: int) -> RadiusAggregates:
        """Return the aggregates for ``radius`` (raises ``KeyError`` if absent)."""
        return self.per_radius[radius]


@dataclass
class PrecomputedData:
    """The output of the offline phase for a whole graph."""

    max_radius: int
    thresholds: tuple[float, ...]
    num_bits: int
    vertex_aggregates: dict = field(default_factory=dict)  # vertex -> VertexAggregates
    global_edge_support: dict = field(default_factory=dict)  # frozenset edge -> support

    def aggregates_of(self, vertex: VertexId) -> VertexAggregates:
        """Return the pre-computed record of ``vertex``."""
        return self.vertex_aggregates[vertex]

    def num_vertices(self) -> int:
        return len(self.vertex_aggregates)

    def supported_radii(self) -> range:
        """Radii for which aggregates exist."""
        return range(1, self.max_radius + 1)

    def validate_radius(self, radius: int) -> None:
        """Raise when an online query uses a radius larger than pre-computed."""
        if radius < 1 or radius > self.max_radius:
            raise GraphError(
                f"radius {radius} is outside the pre-computed range [1, {self.max_radius}]"
            )


def compute_vertex_record(
    graph: SocialNetwork,
    vertex: VertexId,
    max_radius: int,
    thresholds: tuple[float, ...],
    num_bits: int,
    edge_supports: dict,
    keyword_vector_of,
    center_trussness: int,
) -> VertexAggregates:
    """Compute the pre-computed record of one centre vertex (Algorithm 2 body).

    Shared by the full offline pass below and by the incremental refresh in
    :mod:`repro.dynamic.maintenance` — one code path guarantees the patched
    aggregates are bit-for-bit identical to a fresh pre-computation.

    ``keyword_vector_of`` maps a vertex to its keyword :class:`BitVector`
    (a dict lookup in the full pass, an on-demand builder in the refresh);
    ``edge_supports`` holds supports measured in the full graph.
    """
    adjacency = graph.adjacency()
    smallest_theta = thresholds[0]
    distances = bfs_distances(graph, vertex, max_depth=max_radius)
    per_radius: dict[int, RadiusAggregates] = {}
    # Influence propagation once at the smallest threshold for the largest
    # radius is NOT reusable across radii (the seed set changes), so we
    # propagate per radius but reuse one propagation for all thresholds.
    for radius in range(1, max_radius + 1):
        members = [v for v, d in distances.items() if d <= radius]
        member_set = frozenset(members)

        bitvector = BitVector.empty(num_bits)
        for member in members:
            bitvector = bitvector | keyword_vector_of(member)

        support_bound = 0
        for member in members:
            for neighbour in adjacency[member]:
                if neighbour in member_set:
                    support = edge_supports.get(frozenset((member, neighbour)), 0)
                    if support > support_bound:
                        support_bound = support

        influenced = community_propagation(graph, member_set, smallest_theta)
        score_bounds = tuple(
            (theta, sum(p for p in influenced.cpp.values() if p >= theta))
            for theta in thresholds
        )
        per_radius[radius] = RadiusAggregates(
            radius=radius,
            bitvector=bitvector,
            support_upper_bound=support_bound,
            score_bounds=score_bounds,
        )
    return VertexAggregates(
        vertex=vertex,
        keyword_bitvector=keyword_vector_of(vertex),
        per_radius=per_radius,
        center_trussness=center_trussness,
    )


def precompute(
    graph: SocialNetwork,
    max_radius: int = DEFAULT_MAX_RADIUS,
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
    num_bits: int = DEFAULT_NUM_BITS,
    vertices: Iterable[VertexId] | None = None,
    backend: str = "reference",
    frozen=None,
) -> PrecomputedData:
    """Run the offline pre-computation (Algorithm 2) over ``graph``.

    Parameters
    ----------
    graph:
        The social network ``G``.
    max_radius:
        ``r_max`` — aggregates are produced for every radius ``1..r_max``.
    thresholds:
        The pre-selected influence thresholds ``theta_1 < ... < theta_m``.
    num_bits:
        Width of the keyword bit vectors.
    vertices:
        Optional subset of centre vertices to pre-compute (defaults to all).
        Restricting the set is used by tests and by incremental re-builds.
    backend:
        ``"reference"`` runs the dict-based pass below; ``"fast"`` delegates
        to :func:`repro.fastgraph.offline.fast_precompute`, which produces a
        bit-identical result over an array snapshot of ``graph``.
    frozen:
        Optional pre-built CSR snapshot of ``graph`` for the ``fast``
        backend (the engine passes the one it will also serve queries
        from, so the graph is frozen once per epoch).  Ignored on the
        reference backend.

    Returns
    -------
    PrecomputedData
    """
    if backend == "fast":
        # Deferred import; repro.fastgraph.offline imports this module's
        # result types.
        from repro.fastgraph.offline import fast_precompute

        return fast_precompute(
            graph,
            max_radius=max_radius,
            thresholds=thresholds,
            num_bits=num_bits,
            vertices=vertices,
            frozen=frozen,
        )
    if backend != "reference":
        raise GraphError(f"backend must be 'reference' or 'fast', got {backend!r}")
    if max_radius < 1:
        raise GraphError(f"max_radius must be >= 1, got {max_radius}")
    ordered_thresholds = tuple(sorted(set(float(t) for t in thresholds)))
    if not ordered_thresholds:
        raise GraphError("at least one influence threshold is required")
    for theta in ordered_thresholds:
        if not 0.0 <= theta < 1.0:
            raise GraphError(f"influence thresholds must be in [0, 1), got {theta}")

    data = PrecomputedData(
        max_radius=max_radius,
        thresholds=ordered_thresholds,
        num_bits=num_bits,
    )

    # Per-vertex keyword signatures, global edge supports and the truss
    # decomposition are shared by every radius, so compute them once.
    keyword_vectors = {
        v: BitVector.from_keywords(graph.keywords(v), num_bits) for v in graph.vertices()
    }
    data.global_edge_support = edge_support(graph)
    decomposition = truss_decomposition(graph)

    centre_vertices = list(vertices) if vertices is not None else list(graph.vertices())

    for vertex in centre_vertices:
        data.vertex_aggregates[vertex] = compute_vertex_record(
            graph,
            vertex,
            max_radius=max_radius,
            thresholds=ordered_thresholds,
            num_bits=num_bits,
            edge_supports=data.global_edge_support,
            keyword_vector_of=keyword_vectors.__getitem__,
            center_trussness=decomposition.trussness_of_vertex(vertex),
        )
    return data
