"""Incremental truss maintenance: exact supports and trussness under edits.

:class:`IncrementalTrussState` applies an
:class:`~repro.dynamic.updates.UpdateBatch` to a
:class:`~repro.graph.core.GraphCore` and keeps the edge-support map and the
full truss decomposition of that graph up to date, touching only the region
an edit can actually reach instead of re-peeling the whole graph.

The algorithm rests on the local fixpoint characterisation of trussness (the
truss analogue of the h-index characterisation of core numbers): ``tau(f)``
is the unique greatest labelling ``L`` with

    ``L(f) = 2 + max{ k : f lies in >= k triangles whose other two edges g, h
    both satisfy min(L(g), L(h)) >= k + 2 }``

Starting from any *upper bound* of the new trussness and repeatedly applying
the operator above (monotonically decreasing, via a worklist that re-examines
an edge only when a supporting triangle drops below its level) converges to
the exact decomposition of the mutated graph:

* **deletions** only lower trussness, so the old values are already a valid
  upper bound — the worklist starts from the edges whose support changed;
* **insertions** raise the trussness of an existing edge by at most one, and
  only for edges triangle-connected to the new edge through edges that could
  sit in the same k-truss.  A level-labelled BFS over triangles finds that
  candidate set; its estimates are bumped by one (the new edge starts at
  ``support + 2``) and the worklist settles them back down to exact values.

The worklist runs over **int edge ids** through the
:class:`~repro.graph.core.GraphCore` protocol, so the same code maintains a
reference :class:`~repro.graph.core.AdjacencyCore` (and the dict graph it
wraps) and a fast :class:`~repro.fastgraph.delta.DeltaCSR` overlay — there
is no backend-specific maintenance path, and the core is the only thing an
edit mutates.  The public :attr:`supports` and
:attr:`trussness` maps keep the reference ``frozenset`` keying (and the
adopt-by-reference contract with ``PrecomputedData.global_edge_support``);
they are written through on every change, while the hot triangle loops touch
only the id-keyed twins.

Every quantity is exact after :meth:`IncrementalTrussState.apply` returns —
the equivalence test-suite checks bit-for-bit equality against a fresh
:func:`~repro.truss.decomposition.truss_decomposition` of a reference graph
mutated by the same script.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from repro.dynamic.updates import INSERT, UpdateBatch
from repro.graph.core import AdjacencyCore, GraphCore
from repro.graph.social_network import VertexId
from repro.truss.decomposition import TrussDecomposition, truss_decomposition
from repro.truss.support import edge_key


@dataclass
class UpdateDelta:
    """What one applied batch actually changed (consumed by index refresh).

    ``deleted_edges`` records the removed edges *with* their directional
    probabilities so the affected-region analysis can still traverse them
    (paths through a deleted edge existed in the pre-update graph).
    """

    inserted_edges: list = field(default_factory=list)  # (u, v) pairs
    deleted_edges: list = field(default_factory=list)  # (u, v, p_uv, p_vu)
    new_vertices: list = field(default_factory=list)  # creation order
    touched_vertices: set = field(default_factory=set)  # endpoints of all edits
    support_changed: set = field(default_factory=set)  # surviving edges only
    truss_changed: set = field(default_factory=set)  # surviving edges only
    _support_baseline: dict = field(default_factory=dict)
    _truss_baseline: dict = field(default_factory=dict)

    def note_support(self, key: frozenset, old: int) -> None:
        self._support_baseline.setdefault(key, old)

    def note_trussness(self, key: frozenset, old: int) -> None:
        self._truss_baseline.setdefault(key, old)

    def finalize(self, supports: dict, trussness: dict) -> None:
        """Reduce the per-edit notes to net changes over the whole batch."""
        self.support_changed = {
            key
            for key, old in self._support_baseline.items()
            if key in supports and supports[key] != old
        }
        self.truss_changed = {
            key
            for key, old in self._truss_baseline.items()
            if key in trussness and trussness[key] != old
        }

    def changed_edge_vertices(self) -> set:
        """Endpoints of every support- or trussness-changed surviving edge."""
        vertices: set = set()
        for key in self.support_changed | self.truss_changed:
            vertices.update(key)
        return vertices


class IncrementalTrussState:
    """Exact supports + trussness of a graph, maintained under edge edits.

    Parameters
    ----------
    core:
        The live :class:`~repro.graph.core.GraphCore` the worklist runs
        over; :meth:`apply` mutates it (the reference engine's
        :class:`~repro.graph.core.AdjacencyCore`, the fast engine's
        :class:`~repro.fastgraph.delta.DeltaCSR` overlay).
    supports:
        Optional pre-computed support map to adopt **by reference** — passing
        ``PrecomputedData.global_edge_support`` keeps the offline data in sync
        with every edit for free.
    decomposition:
        Optional decomposition to seed the trussness map from; computed fresh
        (one full peeling) when omitted.
    """

    def __init__(
        self,
        core: GraphCore,
        supports: Optional[dict] = None,
        decomposition: Optional[TrussDecomposition] = None,
    ) -> None:
        self.core = core
        self.supports = supports if supports is not None else self._fresh_supports()
        if decomposition is None:
            decomposition = self._fresh_decomposition()
        self.trussness = dict(decomposition.edge_trussness)
        self._vertex_trussness = dict(decomposition.vertex_trussness)
        self._bind_core_maps()

    def _fresh_supports(self) -> dict:
        """Every live edge's triangle count, keyed like ``edge_support``."""
        core = self.core
        supports: dict = {}
        for edge_id in core.live_edge_ids():
            a, b = core.edge_endpoints(edge_id)
            common = core.neighbor_row(a).keys() & core.neighbor_row(b).keys()
            supports[core.edge_key(edge_id)] = len(common)
        return supports

    def _fresh_decomposition(self) -> TrussDecomposition:
        """One full peeling, on the cheapest representation available.

        A reference view peels its dict graph; an overlay peels its CSR base
        when pristine and its compaction otherwise.  Trussness is a graph
        invariant, so the seed values are identical either way.
        """
        core = self.core
        if isinstance(core, AdjacencyCore):
            return truss_decomposition(core.graph)
        from repro.fastgraph.kernels import truss_decomposition_csr

        return truss_decomposition_csr(core.compact() if core.is_dirty else core.base)

    def _bind_core_maps(self) -> None:
        """(Re)derive the id-keyed hot maps from the public keyed maps.

        Called at construction and by :meth:`rebind_core` after the engine
        compacts a :class:`~repro.fastgraph.delta.DeltaCSR` overlay (which
        renumbers edge ids); the public maps are the durable representation,
        the id maps a cheap O(|E|) projection onto the current core.
        """
        supports, trussness = self.supports, self.trussness
        core = self.core
        edge_key_of = core.edge_key
        sup: dict[int, int] = {}
        tau: dict[int, int] = {}
        for edge_id in core.live_edge_ids():
            key = edge_key_of(edge_id)
            sup[edge_id] = supports[key]
            tau[edge_id] = trussness[key]
        self._sup = sup
        self._tau = tau

    def rebind_core(self, core: GraphCore) -> None:
        """Point the worklist at a new core holding the same (current) graph."""
        self.core = core
        self._bind_core_maps()

    # ------------------------------------------------------------------ #
    # read access
    # ------------------------------------------------------------------ #
    def trussness_of_vertex(self, vertex: VertexId) -> int:
        """Trussness of ``vertex`` in the current graph (2 when isolated)."""
        return self._vertex_trussness.get(vertex, 2)

    def supports_by_edge_id(self) -> dict:
        """The live support map keyed by the core's int edge ids."""
        return self._sup

    def decomposition(self) -> TrussDecomposition:
        """Return the current decomposition as a plain read-only object."""
        return TrussDecomposition(
            edge_trussness=dict(self.trussness),
            vertex_trussness=dict(self._vertex_trussness),
        )

    # ------------------------------------------------------------------ #
    # application
    # ------------------------------------------------------------------ #
    def apply(self, batch: UpdateBatch) -> UpdateDelta:
        """Apply ``batch`` to the core, maintaining supports and trussness.

        The batch is validated up front (all-or-nothing); each edit then
        updates supports locally and settles trussness to the exact values
        for the intermediate graph before the next edit is applied.
        """
        batch.validate_against(self.core)
        delta = UpdateDelta()
        for update in batch:
            if update.op == INSERT:
                self._apply_insert(update, delta)
            else:
                self._apply_delete(update, delta)
        delta.finalize(self.supports, self.trussness)
        self._refresh_vertex_trussness(delta)
        return delta

    # ------------------------------------------------------------------ #
    # dual-map writes (id-keyed hot maps + public frozenset-keyed maps)
    # ------------------------------------------------------------------ #
    def _set_support(self, edge_id: int, key: frozenset, value: int) -> None:
        self._sup[edge_id] = value
        self.supports[key] = value

    def _set_trussness(self, edge_id: int, key: frozenset, value: int) -> None:
        self._tau[edge_id] = value
        self.trussness[key] = value

    # ------------------------------------------------------------------ #
    # single edits
    # ------------------------------------------------------------------ #
    def _apply_delete(self, update, delta: UpdateDelta) -> None:
        u_id, v_id = update.u, update.v
        core = self.core
        index_of = core.table.index_of
        u, v = index_of(u_id), index_of(v_id)
        p_uv = core.probability(u, v)
        p_vu = core.probability(v, u)
        row_u = core.neighbor_row(u)
        row_v = core.neighbor_row(v)
        # Triangle edge pairs, collected before the rows mutate.
        common = [(row_u[w], row_v[w]) for w in row_u.keys() & row_v.keys()]
        edge_id = core.note_delete(u_id, v_id)

        key = edge_key(u_id, v_id)
        delta.note_support(key, self._sup.get(edge_id, 0))
        delta.note_trussness(key, self._tau.get(edge_id, 2))
        self._sup.pop(edge_id, None)
        self._tau.pop(edge_id, None)
        self.supports.pop(key, None)
        self.trussness.pop(key, None)
        delta.deleted_edges.append((u_id, v_id, p_uv, p_vu))
        delta.touched_vertices.update((u_id, v_id))

        dirty: list[int] = []
        edge_key_of = core.edge_key
        for edge_uw, edge_vw in common:
            for other in (edge_uw, edge_vw):
                delta.note_support(edge_key_of(other), self._sup[other])
                self._set_support(other, edge_key_of(other), self._sup[other] - 1)
                dirty.append(other)
        self._settle(dirty, delta)

    def _apply_insert(self, update, delta: UpdateDelta) -> None:
        u_id, v_id = update.u, update.v
        core = self.core
        for vertex in (u_id, v_id):
            if vertex not in core.table:
                delta.new_vertices.append(vertex)
                self._vertex_trussness[vertex] = 2
        p_uv, p_vu = update.resolved_probabilities()
        edge_id = core.note_insert(
            u_id, v_id, p_uv, p_vu,
            keywords_u=update.keywords_u, keywords_v=update.keywords_v,
        )

        key = edge_key(u_id, v_id)
        index_of = core.table.index_of
        row_u = core.neighbor_row(index_of(u_id))
        row_v = core.neighbor_row(index_of(v_id))
        common = [(row_u[w], row_v[w]) for w in row_u.keys() & row_v.keys()]
        self._set_support(edge_id, key, len(common))
        delta.inserted_edges.append((u_id, v_id))
        delta.touched_vertices.update((u_id, v_id))
        edge_key_of = core.edge_key
        for edge_uw, edge_vw in common:
            for other in (edge_uw, edge_vw):
                delta.note_support(edge_key_of(other), self._sup[other])
                self._set_support(other, edge_key_of(other), self._sup[other] + 1)

        candidates = self._insertion_candidates(edge_id)
        for candidate in candidates:
            if candidate == edge_id:
                continue
            candidate_key = edge_key_of(candidate)
            delta.note_trussness(candidate_key, self._tau[candidate])
            self._set_trussness(candidate, candidate_key, self._tau[candidate] + 1)
        self._set_trussness(edge_id, key, self._sup[edge_id] + 2)
        self._settle(candidates, delta)

    # ------------------------------------------------------------------ #
    # the affected-region machinery
    # ------------------------------------------------------------------ #
    def _triangles_of(self, edge_id: int):
        """Yield ``(other_edge_1, other_edge_2)`` for each triangle of ``edge_id``."""
        a, b = self.core.edge_endpoints(edge_id)
        row_a = self.core.neighbor_row(a)
        row_b = self.core.neighbor_row(b)
        if len(row_a) > len(row_b):
            row_a, row_b = row_b, row_a
        for w, first in row_a.items():
            second = row_b.get(w)
            if second is not None:
                yield first, second

    def _insertion_candidates(self, new_edge: int) -> list[int]:
        """Edges whose trussness may rise after inserting ``new_edge``.

        Level-labelled BFS over triangles: a label ``l(f)`` bounds the largest
        ``k`` for which ``f`` could sit in the same (new) k-truss as the
        inserted edge, using ``tau + 1`` as the per-edge upper bound (a single
        insertion raises trussness by at most one).  An edge is a candidate
        when its label reaches ``tau + 1``; edges below that only *relay* the
        traversal.  The set provably contains every edge whose trussness
        rises: inside the new maximal k-truss, the riser is triangle-connected
        to the inserted edge through edges of trussness >= k, each of which
        carries a label >= k here.
        """
        start_level = self._sup[new_edge] + 2
        levels: dict[int, int] = {new_edge: start_level}
        queue: deque[int] = deque((new_edge,))
        candidates: list[int] = [new_edge]
        trussness = self._tau

        def upper_bound(edge: int) -> int:
            if edge == new_edge:
                return start_level
            return trussness[edge] + 1

        while queue:
            edge = queue.popleft()
            level = levels[edge]
            for first, second in self._triangles_of(edge):
                bound_first = upper_bound(first)
                bound_second = upper_bound(second)
                reachable = min(level, bound_first, bound_second)
                if reachable < 3:
                    continue
                for other, bound in ((first, bound_first), (second, bound_second)):
                    if reachable > levels.get(other, 2):
                        if (
                            other != new_edge
                            and levels.get(other, 2) < bound <= reachable
                        ):
                            candidates.append(other)
                        levels[other] = reachable
                        queue.append(other)
        return candidates

    def _local_trussness(self, edge_id: int) -> int:
        """The local fixpoint operator ``H`` evaluated at one edge."""
        trussness = self._tau
        values = sorted(
            (
                min(trussness[first], trussness[second])
                for first, second in self._triangles_of(edge_id)
            ),
            reverse=True,
        )
        best = 2
        for index, value in enumerate(values):
            feasible = min(value, index + 3)
            if feasible > best:
                best = feasible
        return best

    def _settle(self, dirty, delta: UpdateDelta) -> None:
        """Run the decreasing worklist until the labelling is a fixpoint."""
        queue: deque[int] = deque(dirty)
        queued = set(queue)
        trussness = self._tau
        edge_key_of = self.core.edge_key
        while queue:
            edge_id = queue.popleft()
            queued.discard(edge_id)
            current = trussness.get(edge_id)
            if current is None:  # edge deleted after being enqueued
                continue
            settled = self._local_trussness(edge_id)
            if settled >= current:
                continue
            key = edge_key_of(edge_id)
            delta.note_trussness(key, current)
            self._set_trussness(edge_id, key, settled)
            # A triangle supports a neighbour at level l only while both
            # other edges carry >= l; the drop from `current` to `settled`
            # can only invalidate neighbours between those levels.
            for first, second in self._triangles_of(edge_id):
                for other in (first, second):
                    if settled < trussness[other] <= current and other not in queued:
                        queue.append(other)
                        queued.add(other)

    def _refresh_vertex_trussness(self, delta: UpdateDelta) -> None:
        """Recompute vertex trussness around everything the batch touched."""
        core = self.core
        trussness = self._tau
        index_of = core.table.index_of
        stale = set(delta.touched_vertices)
        stale.update(delta.changed_edge_vertices())
        for key in delta.truss_changed:
            stale.update(key)
        for vertex in stale:
            if vertex not in core.table:  # pragma: no cover - edge-only edits
                self._vertex_trussness.pop(vertex, None)
                continue
            best = 2
            for edge_id in core.neighbor_row(index_of(vertex)).values():
                value = trussness[edge_id]
                if value > best:
                    best = value
            self._vertex_trussness[vertex] = best
