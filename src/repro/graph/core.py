"""The :class:`GraphCore` protocol: one dense-int view over every backend.

The dynamic layer (incremental truss maintenance, affected-centre analysis)
and the fast kernels all want the same things from a graph: dense integer
vertices, integer edge ids, per-vertex neighbour rows, directional arc
probabilities — plus a way to *stay in sync* while an edit script is applied.
Historically the reference path got this from ``SocialNetwork`` dicts and the
fast path from a frozen :class:`~repro.fastgraph.csr.CSRGraph`, which forced
``repro.dynamic`` to be reference-only.  ``GraphCore`` is the shared contract
both worlds implement:

* :class:`AdjacencyCore` (here) — a live int-indexed view over a mutable
  :class:`~repro.graph.social_network.SocialNetwork`;
* :class:`~repro.fastgraph.csr.CSRGraph` — the frozen array snapshot
  (read-only subset of the protocol);
* :class:`~repro.fastgraph.delta.DeltaCSR` — the mutable overlay over a
  frozen snapshot (tombstones + append-only spill).

Everything downstream —
:class:`~repro.dynamic.truss_maintenance.IncrementalTrussState`'s worklist,
:func:`~repro.dynamic.maintenance.affected_centers`,
:class:`~repro.fastgraph.kernels.CSRWorkspace` — programs against this
protocol instead of forking on ``config.backend``.

Conventions shared by every implementation:

* vertex ints are assigned by a :class:`~repro.fastgraph.vertex_table.VertexTable`
  in first-seen order and are never reused;
* edge ids are assigned in first-seen order and never reused either — a
  deleted edge *retires* its id, and re-inserting the same endpoint pair
  yields a fresh id (edge-id stability is what lets per-id maps survive
  edits);
* ``note_insert``/``note_delete`` are the only way an edit reaches a
  graph: the core applies the edit itself (an :class:`AdjacencyCore` to the
  ``SocialNetwork`` it wraps), given the resolved directional probabilities.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Mapping, Protocol, runtime_checkable

from repro.fastgraph.vertex_table import VertexTable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.social_network import SocialNetwork, VertexId


@runtime_checkable
class GraphCore(Protocol):
    """What every graph core exposes (see the module docstring).

    The protocol is structural: implementations do not inherit from it, and
    consumers duck-type.  ``isinstance(obj, GraphCore)`` works for runtime
    checks because the class is :func:`~typing.runtime_checkable` (methods
    only, per Python's protocol semantics).
    """

    table: VertexTable

    @property
    def num_vertices(self) -> int:
        """Number of interned vertices (dense ints ``0..n-1``)."""
        ...  # pragma: no cover - protocol stub

    @property
    def num_edges(self) -> int:
        """Number of *live* undirected edges."""
        ...  # pragma: no cover - protocol stub

    def degree(self, vertex: int) -> int:
        """Live structural degree of ``vertex``."""
        ...  # pragma: no cover - protocol stub

    def has_edge(self, u_id: "VertexId", v_id: "VertexId") -> bool:
        """Whether the live graph holds the edge ``{u_id, v_id}`` (original ids)."""
        ...  # pragma: no cover - protocol stub

    def neighbor_row(self, vertex: int) -> Mapping[int, int]:
        """Live ``{neighbour int: edge id}`` row of ``vertex``.

        The returned mapping is owned by the core and mutates with it; do
        not modify it and do not hold it across edits.
        """
        ...  # pragma: no cover - protocol stub

    def arcs(self, vertex: int) -> Iterator[tuple[int, float, float, int]]:
        """Live out-arcs of ``vertex`` as ``(head, p_out, p_in, edge_id)``."""
        ...  # pragma: no cover - protocol stub

    def probability(self, tail: int, head: int) -> float:
        """``p_{tail, head}`` for a live edge (by dense ints)."""
        ...  # pragma: no cover - protocol stub

    def live_edge_ids(self) -> Iterator[int]:
        """Iterate the ids of every live edge (each exactly once)."""
        ...  # pragma: no cover - protocol stub

    def edge_endpoints(self, edge_id: int) -> tuple[int, int]:
        """The dense endpoint ints of ``edge_id`` (live or retired)."""
        ...  # pragma: no cover - protocol stub

    def edge_key(self, edge_id: int) -> frozenset:
        """The reference-style ``frozenset`` key (original vertex ids)."""
        ...  # pragma: no cover - protocol stub

    def keywords_of(self, vertex: int) -> frozenset:
        """Keyword set of dense vertex ``vertex``."""
        ...  # pragma: no cover - protocol stub

    def note_insert(
        self,
        u: "VertexId",
        v: "VertexId",
        p_uv: float,
        p_vu: float,
        keywords_u: frozenset = frozenset(),
        keywords_v: frozenset = frozenset(),
    ) -> int:
        """Apply an edge insertion (endpoints created on demand); return its id."""
        ...  # pragma: no cover - protocol stub

    def note_delete(self, u: "VertexId", v: "VertexId") -> int:
        """Apply an edge deletion; return the retired edge id."""
        ...  # pragma: no cover - protocol stub


class AdjacencyCore:
    """A live :class:`GraphCore` view over a mutable ``SocialNetwork``.

    Construction interns every vertex and numbers every edge (iteration
    order, so two cores over equal graphs agree).  After that every edit goes
    through :meth:`note_insert`/:meth:`note_delete`, which apply it to the
    wrapped graph and to the int-indexed rows together, so the two cannot
    drift apart.  Probabilities are *not* copied — they are read through to
    the live graph — so the core adds no float state to keep in sync.
    """

    __slots__ = ("graph", "name", "table", "_rows", "_ends", "_num_live", "mutation_log")

    def __init__(self, graph: "SocialNetwork") -> None:
        self.graph = graph
        self.name = graph.name
        self.table = VertexTable(graph.vertices())
        index_of = self.table.index_of
        self._rows: list[dict[int, int]] = [{} for _ in range(len(self.table))]
        self._ends: list[tuple[int, int]] = []
        for u_id, v_id in graph.edges():
            u, v = index_of(u_id), index_of(v_id)
            edge_id = len(self._ends)
            self._ends.append((u, v))
            self._rows[u][v] = edge_id
            self._rows[v][u] = edge_id
        self._num_live = len(self._ends)
        #: Vertices whose arc set changed, in order (workspace sync contract;
        #: see :meth:`repro.fastgraph.kernels.CSRWorkspace.sync`).
        self.mutation_log: list[int] = []

    # ------------------------------------------------------------------ #
    # read access
    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        return len(self._rows)

    @property
    def num_edges(self) -> int:
        return self._num_live

    def degree(self, vertex: int) -> int:
        return len(self._rows[vertex])

    def has_edge(self, u_id: "VertexId", v_id: "VertexId") -> bool:
        return self.graph.has_edge(u_id, v_id)

    def neighbor_row(self, vertex: int) -> Mapping[int, int]:
        return self._rows[vertex]

    def arcs(self, vertex: int) -> Iterator[tuple[int, float, float, int]]:
        id_of = self.table.id_of
        probability = self.graph.probability
        tail_id = id_of(vertex)
        for head, edge_id in self._rows[vertex].items():
            head_id = id_of(head)
            yield head, probability(tail_id, head_id), probability(head_id, tail_id), edge_id

    def probability(self, tail: int, head: int) -> float:
        id_of = self.table.id_of
        return self.graph.probability(id_of(tail), id_of(head))

    def live_edge_ids(self) -> Iterator[int]:
        for u, row in enumerate(self._rows):
            for v, edge_id in row.items():
                if u < v:
                    yield edge_id

    def edge_endpoints(self, edge_id: int) -> tuple[int, int]:
        return self._ends[edge_id]

    def edge_key(self, edge_id: int) -> frozenset:
        u, v = self._ends[edge_id]
        id_of = self.table.id_of
        return frozenset((id_of(u), id_of(v)))

    def keywords_of(self, vertex: int) -> frozenset:
        return self.graph.keywords(self.table.id_of(vertex))

    # ------------------------------------------------------------------ #
    # edit tracking
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
        graph = self.graph
        for vertex, keywords in ((u, keywords_u), (v, keywords_v)):
            if vertex not in self.table:
                graph.add_vertex(vertex, keywords)
                index = self.table.intern(vertex)
                self._rows.append({})
                self.mutation_log.append(index)
        graph.add_edge(u, v, p_uv, p_vu)
        index_of = self.table.index_of
        u_int, v_int = index_of(u), index_of(v)
        edge_id = len(self._ends)
        self._ends.append((u_int, v_int))
        self._rows[u_int][v_int] = edge_id
        self._rows[v_int][u_int] = edge_id
        self._num_live += 1
        self.mutation_log.append(u_int)
        self.mutation_log.append(v_int)
        return edge_id

    def note_delete(self, u: "VertexId", v: "VertexId") -> int:
        self.graph.remove_edge(u, v)
        index_of = self.table.index_of
        u_int, v_int = index_of(u), index_of(v)
        edge_id = self._rows[u_int].pop(v_int)
        self._rows[v_int].pop(u_int)
        self._num_live -= 1
        self.mutation_log.append(u_int)
        self.mutation_log.append(v_int)
        return edge_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AdjacencyCore(name={self.name!r}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges})"
        )
