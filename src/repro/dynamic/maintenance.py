"""Affected-region analysis and incremental index refresh.

After :class:`~repro.dynamic.truss_maintenance.IncrementalTrussState` has
applied a batch, this module decides *which centre vertices* need their
pre-computed records (Algorithm 2 aggregates) rebuilt, refreshes exactly
those, and reports the damage ratio the engine uses for its
incremental-vs-rebuild decision.

A centre ``v`` is affected when any ingredient of its record can differ on
the mutated graph:

* its ``r``-hop ball gained or lost members — ``v`` lies within ``r_max``
  hops of a modified endpoint (in the pre- or post-update graph, so deleted
  edges still count as traversable);
* the support of an edge inside the ball changed, or the trussness of an
  incident edge changed — those edges' endpoints are seeds too;
* the influence row of a ball member changed.  By Eq. 4,
  ``cpp(g, w) = max_{u in g} upp(u, w)``, so a record's scores move only
  through some member's single-source row ``upp(u, .)``, and that row
  moves only through a path with product >= theta that crosses an edited
  arc ``t -> h`` (in the pre- or post-update graph).  The path's prefix up
  to its first edited arc is unedited, so ``upp(u, t) * p(t -> h)`` is at
  least the path's product.  The reverse max-product Dijkstra therefore
  starts at each edited arc's tail ``t`` with that arc's own probability
  (cut off at the smallest pre-selected threshold), and the centres within
  ``r_max`` hops of what it reaches inherit the taint.

Everything outside that set keeps records that are bit-for-bit identical to
what a fresh pre-computation would produce — the equivalence property suite
enforces this.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable

from repro.dynamic.truss_maintenance import IncrementalTrussState, UpdateDelta
from repro.graph.core import GraphCore
from repro.graph.social_network import SocialNetwork, VertexId
from repro.index.precompute import PrecomputedData, compute_vertex_record
from repro.keywords.bitvector import BitVector

#: Default fraction of vertices past which patching loses to re-building.
DEFAULT_DAMAGE_THRESHOLD = 0.35


@dataclass(frozen=True)
class UpdateReport:
    """What one :meth:`~repro.core.engine.InfluentialCommunityEngine.apply_updates` call did."""

    mode: str  # "incremental" | "rebuild" | "noop"
    insertions: int
    deletions: int
    new_vertices: int
    affected_vertices: int
    total_vertices: int
    support_changed_edges: int
    truss_changed_edges: int
    damage_ratio: float
    damage_threshold: float
    epoch: int
    elapsed_seconds: float
    #: Fast backend only: the snapshot overlay's dirt ratio after the batch
    #: (0.0 on the reference backend and on rebuilds, which reset the base).
    overlay_dirt_ratio: float = 0.0
    #: Whether the incremental path folded the overlay back into a pure CSR
    #: because the dirt ratio crossed ``EngineConfig.compact_dirt_ratio``.
    compacted: bool = False
    #: Tree nodes whose aggregates the index patch recomputed (0 for noop
    #: and rebuild batches, which patch nothing).
    patched_nodes: int = 0

    @property
    def applied_mode(self) -> str:
        """The operator-facing mode: ``patch`` / ``compact`` / ``rebuild`` / ``noop``.

        ``mode`` keeps the historical incremental-vs-rebuild contract;
        this view splits the incremental path by whether the snapshot
        overlay was compacted afterwards (the ``repro update`` CLI and the
        dynamic benchmark report it).
        """
        if self.mode != "incremental":
            return self.mode
        return "compact" if self.compacted else "patch"

    def as_dict(self) -> dict:
        """Flat dict for reports, the CLI and the dynamic-update benchmark."""
        return {
            "mode": self.mode,
            "applied_mode": self.applied_mode,
            "insertions": self.insertions,
            "deletions": self.deletions,
            "new_vertices": self.new_vertices,
            "affected_vertices": self.affected_vertices,
            "total_vertices": self.total_vertices,
            "support_changed_edges": self.support_changed_edges,
            "truss_changed_edges": self.truss_changed_edges,
            "damage_ratio": round(self.damage_ratio, 4),
            "damage_threshold": self.damage_threshold,
            "overlay_dirt_ratio": round(self.overlay_dirt_ratio, 4),
            "compacted": self.compacted,
            "patched_nodes": self.patched_nodes,
            "epoch": self.epoch,
            "elapsed_seconds": self.elapsed_seconds,
        }


def _union_rows(core: GraphCore, delta: UpdateDelta):
    """Neighbour iteration over the post-update core plus deleted edges.

    Returns ``(neighbors, probability)`` callables over dense vertex ints.
    Traversing the union of the pre- and post-update edge sets
    over-approximates reachability in both graphs at once, which keeps the
    taint analysis one-pass and sound.
    """
    index_of = core.table.index_of
    extra: dict[int, dict[int, float]] = {}
    for u_id, v_id, p_uv, p_vu in delta.deleted_edges:
        u, v = index_of(u_id), index_of(v_id)
        extra.setdefault(u, {})[v] = p_uv
        extra.setdefault(v, {})[u] = p_vu

    def neighbors(vertex: int):
        row = core.neighbor_row(vertex)
        yield from row
        for neighbour in extra.get(vertex, ()):
            if neighbour not in row:
                yield neighbour

    def probability(source: int, target: int) -> float:
        if target in core.neighbor_row(source):
            return core.probability(source, target)
        return extra[source][target]

    return neighbors, probability


def _edited_arcs(core: GraphCore, delta: UpdateDelta) -> list:
    """``(tail, p(tail -> head))`` for both arcs of every edited edge.

    A deletion carries the probabilities it recorded.  A surviving
    insertion carries its current ones; an edge inserted and deleted again
    in the same batch is no longer in the graph, and its deletion already
    recorded its probabilities.
    """
    index_of = core.table.index_of
    arcs = []
    for u_id, v_id, p_uv, p_vu in delta.deleted_edges:
        arcs.append((index_of(u_id), p_uv))
        arcs.append((index_of(v_id), p_vu))
    for u_id, v_id in delta.inserted_edges:
        u, v = index_of(u_id), index_of(v_id)
        if v in core.neighbor_row(u):
            arcs.append((u, core.probability(u, v)))
            arcs.append((v, core.probability(v, u)))
    return arcs


def reverse_influence_set(core: GraphCore, delta: UpdateDelta, threshold: float) -> set:
    """Vertices ``w`` with ``upp(w, t) * p(t -> h) >= threshold`` for an edited arc.

    Runs a reverse multi-source max-product Dijkstra over the union of the
    pre- and post-update edge sets, started at each edited arc's tail ``t``
    with the arc's probability ``p(t -> h)``: the step from ``vertex`` back
    to ``neighbour`` multiplies by ``p(neighbour, vertex)`` — the
    probability the neighbour activates the current vertex — because
    influence flows forward along the path being reconstructed.  Every
    source whose ``upp`` row can differ after ``delta`` is in the result
    (see the module docstring).  With ``threshold <= 0`` propagation is
    unbounded, so every vertex is returned (the caller falls back to a
    rebuild).

    The traversal runs over dense ints through the
    :class:`~repro.graph.core.GraphCore` protocol; ``core`` is the
    post-update graph the engine maintains.
    """
    if threshold <= 0.0:
        return set(core.table)
    id_of = core.table.id_of
    neighbors, probability = _union_rows(core, delta)
    # This walk multiplies a path's probabilities endpoint-first; forward
    # ``upp`` rows and records multiply them source-first, and the two
    # roundings of one product can fall on either side of ``threshold``.
    # They differ by at most ~2(k-1) ulps for a k-factor path, so a 1e-9
    # relative slack keeps the result a superset of every forward reach.
    cutoff = threshold * (1.0 - 1e-9)
    best: dict[int, float] = {}
    heap = [
        (-p, counter, tail)
        for counter, (tail, p) in enumerate(_edited_arcs(core, delta))
        if p >= cutoff
    ]
    counter = len(heap)
    heapq.heapify(heap)
    while heap:
        negative, _, vertex = heapq.heappop(heap)
        if vertex in best:
            continue
        product = -negative
        best[vertex] = product
        for neighbour in neighbors(vertex):
            if neighbour in best:
                continue
            backwards = product * probability(neighbour, vertex)
            if backwards < cutoff:
                continue
            heapq.heappush(heap, (-backwards, counter, neighbour))
            counter += 1
    return {id_of(vertex) for vertex in best}


def affected_centers(
    core: GraphCore,
    delta: UpdateDelta,
    max_radius: int,
    theta_min: float,
) -> tuple[set, set]:
    """Centre vertices whose pre-computed records may differ after ``delta``.

    Returns ``(centres, influenced)``.  ``influenced`` is the reverse
    influence set of the edited arcs at ``theta_min``
    (:func:`reverse_influence_set`) plus the edited endpoints: every vertex
    whose single-source propagation at ``theta_min`` can have changed (the
    fast refresh drops exactly their cached ``upp`` rows; with
    ``theta_min <= 0`` it is every vertex).  The endpoints also seed the
    ``r_max``-hop expansion, because their balls change.

    ``core`` is the engine's live :class:`~repro.graph.core.GraphCore`, after
    the truss state applied ``delta`` to it.
    """
    influenced = reverse_influence_set(core, delta, theta_min)
    influenced.update(delta.touched_vertices)
    table = core.table
    index_of = table.index_of
    id_of = table.id_of
    seeds = {
        vertex for vertex in influenced | delta.changed_edge_vertices() if vertex in table
    }

    neighbors, _ = _union_rows(core, delta)
    affected = {index_of(vertex) for vertex in seeds}
    frontier = list(affected)
    for _ in range(max_radius):
        next_frontier: list[int] = []
        for vertex in frontier:
            for neighbour in neighbors(vertex):
                if neighbour not in affected:
                    affected.add(neighbour)
                    next_frontier.append(neighbour)
        frontier = next_frontier
    return {id_of(vertex) for vertex in affected}, influenced


def refresh_vertex_aggregates(
    graph: SocialNetwork,
    data: PrecomputedData,
    vertices: Iterable[VertexId],
    truss_state: IncrementalTrussState,
) -> int:
    """Recompute the records of ``vertices`` in place; return how many.

    Uses the same :func:`compute_vertex_record` code path as the full offline
    pass, against the (incrementally maintained) global supports in ``data``
    and the trussness held by ``truss_state``.
    """
    cache: dict[VertexId, BitVector] = {}

    def keyword_vector_of(vertex: VertexId) -> BitVector:
        vector = cache.get(vertex)
        if vector is None:
            vector = BitVector.from_keywords(graph.keywords(vertex), data.num_bits)
            cache[vertex] = vector
        return vector

    refreshed = 0
    for vertex in vertices:
        data.vertex_aggregates[vertex] = compute_vertex_record(
            graph,
            vertex,
            max_radius=data.max_radius,
            thresholds=data.thresholds,
            num_bits=data.num_bits,
            edge_supports=data.global_edge_support,
            keyword_vector_of=keyword_vector_of,
            center_trussness=truss_state.trussness_of_vertex(vertex),
        )
        refreshed += 1
    return refreshed
