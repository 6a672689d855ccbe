"""``DeltaCSR``: a mutable overlay over a frozen :class:`CSRGraph`.

The fast backend's snapshot used to be frozen-only: any dynamic update
invalidated it and the next query paid a full ``freeze()``.  ``DeltaCSR``
makes the snapshot *mutable* without rewriting the CSR buffers:

* **deletions** tombstone the edge id (a per-edge dirty byte); tombstoned
  arcs are skipped wherever arcs are iterated;
* **insertions** go to an append-only *spill*: per-vertex overflow arc lists
  plus parallel overlay-edge arrays, with edge ids continuing past the base
  snapshot's — ids are **stable**: a base edge keeps its id until deleted,
  deleted ids are retired (never reused), re-inserting the same endpoints
  yields a fresh id;
* **new vertices** are interned into the shared
  :class:`~repro.fastgraph.vertex_table.VertexTable` and live entirely in
  the spill.

The overlay implements the same :class:`~repro.graph.core.GraphCore`
protocol as the reference :class:`~repro.graph.core.AdjacencyCore`, so the
dynamic layer and the :class:`~repro.fastgraph.kernels.CSRWorkspace` kernels
run over it unchanged.  Every mutation appends the touched vertices to
:attr:`mutation_log`, which lets workspaces re-derive only the rows that
changed (see :meth:`~repro.fastgraph.kernels.CSRWorkspace.sync`).

Dirt and compaction
-------------------
Each edit makes the overlay a little less CSR-like: tombstones waste scans,
spill arcs live outside the contiguous buffers.  :meth:`dirt_ratio` measures
that — retired tombstones plus overlay arcs relative to the live edge count —
and :meth:`compact` folds everything back into a pure :class:`CSRGraph`.
Compaction preserves the arc order a re-``freeze()`` of the equivalently
mutated reference graph would produce (dict deletion keeps relative order,
re-insertion appends — exactly tombstone + spill), so ``compact()`` is
bit-identical to ``freeze(mutated_graph)``.  The engine compacts
automatically once the ratio exceeds ``EngineConfig.compact_dirt_ratio``,
which makes the overlay's extra scan cost amortized O(1) per edit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Mapping, Optional

from repro.exceptions import GraphError
from repro.fastgraph.csr import _FLOAT, _INT, CSRGraph
from array import array

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.social_network import VertexId


class DeltaCSR:
    """A :class:`CSRGraph` plus an edit overlay (see the module docstring)."""

    __slots__ = (
        "base",
        "name",
        "table",
        "_num_vertices",
        "_base_edges",
        "_dead_base",
        "_num_dead_base",
        "_extra_u",
        "_extra_v",
        "_extra_puv",
        "_extra_pvu",
        "_extra_dead",
        "_num_live_extra",
        "_spill",
        "_rows",
        "_extra_keywords",
        "_p_fwd",
        "_p_rev",
        "mutation_log",
    )

    def __init__(self, base: CSRGraph) -> None:
        self.base = base
        self.name = base.name
        self.table = base.table
        self._num_vertices = base.num_vertices
        self._base_edges = base.num_edges
        self._dead_base = bytearray(self._base_edges)
        self._num_dead_base = 0
        # Overlay edges: id = _base_edges + position (retired ids keep their slot).
        self._extra_u: list[int] = []
        self._extra_v: list[int] = []
        self._extra_puv: list[float] = []
        self._extra_pvu: list[float] = []
        self._extra_dead = bytearray()
        self._num_live_extra = 0
        #: Per-vertex overflow arcs ``(head, edge_id)`` in insertion order.
        self._spill: list[list[tuple[int, int]]] = [[] for _ in range(self._num_vertices)]
        #: Lazily-built live ``{neighbour: edge id}`` rows, then maintained.
        self._rows: list[Optional[dict[int, int]]] = [None] * self._num_vertices
        self._extra_keywords: list[frozenset] = []
        # Per-base-edge directional probabilities, indexed by edge id:
        # _p_fwd[e] is p(edge_u -> edge_v), _p_rev[e] the reverse.  One pass
        # over the arcs fills both (each edge owns exactly two arcs).
        self._p_fwd = array(_FLOAT, bytes(8 * self._base_edges))
        self._p_rev = array(_FLOAT, bytes(8 * self._base_edges))
        indptr, indices = base.indptr, base.indices
        prob_out, arc_edge, edge_u = base.prob_out, base.arc_edge, base.edge_u
        for u in range(self._num_vertices):
            for a in range(indptr[u], indptr[u + 1]):
                edge_id = arc_edge[a]
                if u == edge_u[edge_id]:
                    self._p_fwd[edge_id] = prob_out[a]
                else:
                    self._p_rev[edge_id] = prob_out[a]
        #: Vertices whose arc set changed, in mutation order (never trimmed;
        #: workspaces keep an offset into it — see ``CSRWorkspace.sync``).
        self.mutation_log: list[int] = []

    # ------------------------------------------------------------------ #
    # shape
    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        return self._num_vertices

    @property
    def num_edges(self) -> int:
        """Live undirected edges (base minus tombstones plus live overlay)."""
        return self._base_edges - self._num_dead_base + self._num_live_extra

    def dirt_ratio(self) -> float:
        """How far the overlay has drifted from a pure CSR.

        Retired tombstones plus overlay arcs, relative to the live edge
        count; 0.0 for a pristine snapshot.  The engine compacts once this
        exceeds ``EngineConfig.compact_dirt_ratio``.
        """
        live = self.num_edges
        if live <= 0:
            return float(self._num_dead_base + len(self._extra_u))
        return (self._num_dead_base + len(self._extra_u)) / live

    @property
    def is_dirty(self) -> bool:
        """Whether any edit has been applied since (or overlaying) the base."""
        return bool(self._num_dead_base or self._extra_u or self._num_vertices > self.base.num_vertices)

    # ------------------------------------------------------------------ #
    # GraphCore read access
    # ------------------------------------------------------------------ #
    def _edge_alive(self, edge_id: int) -> bool:
        if edge_id < self._base_edges:
            return not self._dead_base[edge_id]
        return not self._extra_dead[edge_id - self._base_edges]

    def degree(self, vertex: int) -> int:
        return len(self.neighbor_row(vertex))

    def has_edge(self, u_id: "VertexId", v_id: "VertexId") -> bool:
        table = self.table
        if u_id not in table or v_id not in table:
            return False
        return table.index_of(v_id) in self.neighbor_row(table.index_of(u_id))

    def neighbor_row(self, vertex: int) -> Mapping[int, int]:
        row = self._rows[vertex]
        if row is None:
            row = {}
            base = self.base
            if vertex < base.num_vertices:
                dead = self._dead_base
                indices, arc_edge = base.indices, base.arc_edge
                for a in range(base.indptr[vertex], base.indptr[vertex + 1]):
                    edge_id = arc_edge[a]
                    if not dead[edge_id]:
                        row[indices[a]] = edge_id
            for head, edge_id in self._spill[vertex]:
                if self._edge_alive(edge_id):
                    row[head] = edge_id
            self._rows[vertex] = row
        return row

    def arcs(self, vertex: int) -> Iterator[tuple[int, float, float, int]]:
        base = self.base
        if vertex < base.num_vertices:
            dead = self._dead_base
            indices, arc_edge = base.indices, base.arc_edge
            prob_out, prob_in = base.prob_out, base.prob_in
            for a in range(base.indptr[vertex], base.indptr[vertex + 1]):
                edge_id = arc_edge[a]
                if not dead[edge_id]:
                    yield indices[a], prob_out[a], prob_in[a], edge_id
        offset = self._base_edges
        for head, edge_id in self._spill[vertex]:
            if not self._extra_dead[edge_id - offset]:
                position = edge_id - offset
                if self._extra_u[position] == vertex:
                    yield head, self._extra_puv[position], self._extra_pvu[position], edge_id
                else:
                    yield head, self._extra_pvu[position], self._extra_puv[position], edge_id

    def probability(self, tail: int, head: int) -> float:
        edge_id = self.neighbor_row(tail)[head]
        if edge_id < self._base_edges:
            if self.base.edge_u[edge_id] == tail:
                return self._p_fwd[edge_id]
            return self._p_rev[edge_id]
        position = edge_id - self._base_edges
        if self._extra_u[position] == tail:
            return self._extra_puv[position]
        return self._extra_pvu[position]

    def live_edge_ids(self) -> Iterator[int]:
        dead = self._dead_base
        for edge_id in range(self._base_edges):
            if not dead[edge_id]:
                yield edge_id
        offset = self._base_edges
        for position in range(len(self._extra_u)):
            if not self._extra_dead[position]:
                yield offset + position

    def edge_endpoints(self, edge_id: int) -> tuple[int, int]:
        if edge_id < self._base_edges:
            return self.base.edge_u[edge_id], self.base.edge_v[edge_id]
        position = edge_id - self._base_edges
        return self._extra_u[position], self._extra_v[position]

    def edge_key(self, edge_id: int) -> frozenset:
        u, v = self.edge_endpoints(edge_id)
        id_of = self.table.id_of
        return frozenset((id_of(u), id_of(v)))

    def keywords_of(self, vertex: int) -> frozenset:
        base_n = self.base.num_vertices
        if vertex < base_n:
            return self.base.keywords[vertex]
        return self._extra_keywords[vertex - base_n]

    # ------------------------------------------------------------------ #
    # GraphCore edit tracking
    # ------------------------------------------------------------------ #
    def note_insert(
        self,
        u: "VertexId",
        v: "VertexId",
        p_uv: float,
        p_vu: float,
        keywords_u: frozenset = frozenset(),
        keywords_v: frozenset = frozenset(),
    ) -> int:
        for vertex, keywords in ((u, keywords_u), (v, keywords_v)):
            if vertex not in self.table:
                index = self.table.intern(vertex)
                self._spill.append([])
                self._rows.append({})
                self._extra_keywords.append(frozenset(keywords))
                self._num_vertices += 1
                self.mutation_log.append(index)
        index_of = self.table.index_of
        u_int, v_int = index_of(u), index_of(v)
        edge_id = self._base_edges + len(self._extra_u)
        self._extra_u.append(u_int)
        self._extra_v.append(v_int)
        self._extra_puv.append(p_uv)
        self._extra_pvu.append(p_vu)
        self._extra_dead.append(0)
        self._num_live_extra += 1
        self._spill[u_int].append((v_int, edge_id))
        self._spill[v_int].append((u_int, edge_id))
        for vertex, head in ((u_int, v_int), (v_int, u_int)):
            row = self._rows[vertex]
            if row is not None:
                row[head] = edge_id
        self.mutation_log.append(u_int)
        self.mutation_log.append(v_int)
        return edge_id

    def note_delete(self, u: "VertexId", v: "VertexId") -> int:
        index_of = self.table.index_of
        u_int, v_int = index_of(u), index_of(v)
        edge_id = self.neighbor_row(u_int).get(v_int)
        if edge_id is None:
            raise GraphError(
                f"cannot tombstone missing edge ({u!r}, {v!r}) in DeltaCSR overlay"
            )
        if edge_id < self._base_edges:
            self._dead_base[edge_id] = 1
            self._num_dead_base += 1
        else:
            self._extra_dead[edge_id - self._base_edges] = 1
            self._num_live_extra -= 1
        for vertex, head in ((u_int, v_int), (v_int, u_int)):
            row = self._rows[vertex]
            if row is not None:
                row.pop(head, None)
        self.mutation_log.append(u_int)
        self.mutation_log.append(v_int)
        return edge_id

    # ------------------------------------------------------------------ #
    # compaction
    # ------------------------------------------------------------------ #
    def compact(self) -> CSRGraph:
        """Fold the overlay back into a pure :class:`CSRGraph`.

        The result is bit-identical — buffers included — to freezing the
        equivalently mutated reference graph: per-vertex arc order is the
        base order minus tombstones plus spill in insertion order (matching
        dict-deletion/-append semantics), and edge ids are renumbered in the
        same first-encounter scan ``freeze()`` uses.  Edge ids therefore
        change across a compaction; holders of per-id state must re-bind
        (the engine re-binds its truss state and workspaces).
        """
        n = self._num_vertices
        indptr = array(_INT, [0] * (n + 1))
        indices_list: list[int] = []
        prob_out_list: list[float] = []
        prob_in_list: list[float] = []
        arc_edge_list: list[int] = []
        edge_u_list: list[int] = []
        edge_v_list: list[int] = []
        new_ids: dict[int, int] = {}
        for u in range(n):
            for head, p_out, p_in, old_id in self.arcs(u):
                new_id = new_ids.get(old_id)
                if new_id is None:
                    new_id = len(edge_u_list)
                    new_ids[old_id] = new_id
                    key = (u, head) if u < head else (head, u)
                    edge_u_list.append(key[0])
                    edge_v_list.append(key[1])
                indices_list.append(head)
                prob_out_list.append(p_out)
                prob_in_list.append(p_in)
                arc_edge_list.append(new_id)
            indptr[u + 1] = len(indices_list)
        keywords = tuple(self.base.keywords) + tuple(self._extra_keywords)
        return CSRGraph(
            name=self.name,
            table=self.table,
            indptr=indptr,
            indices=array(_INT, indices_list),
            prob_out=array(_FLOAT, prob_out_list),
            prob_in=array(_FLOAT, prob_in_list),
            arc_edge=array(_INT, arc_edge_list),
            edge_u=array(_INT, edge_u_list),
            edge_v=array(_INT, edge_v_list),
            keywords=keywords,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DeltaCSR(name={self.name!r}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges}, dirt={self.dirt_ratio():.3f})"
        )
