"""Compact CSR mirror of a :class:`~repro.graph.social_network.SocialNetwork`.

The adjacency is stored in standard compressed-sparse-row form over the dense
ints of a :class:`~repro.fastgraph.vertex_table.VertexTable`:

* ``indptr[u] .. indptr[u + 1]`` delimits the *arcs* (directed half-edges)
  leaving vertex ``u``;
* ``indices[a]`` is the head of arc ``a``;
* ``prob_out[a]`` is ``p_{u,v}`` (tail activates head) and ``prob_in[a]`` is
  ``p_{v,u}`` for arc ``a = (u -> v)``;
* ``arc_edge[a]`` is the id of the undirected structural edge the arc belongs
  to (each edge owns exactly two arcs), and ``edge_u``/``edge_v`` map an edge
  id back to its endpoint ints.

Everything lives in stdlib :class:`array.array` buffers — compact and
picklable.  When numpy is installed (detected
once at import, :data:`NUMPY_AVAILABLE`) the buffers are additionally exposed
zero-copy as ndarrays via :meth:`CSRGraph.as_numpy`.  The kernels in
:mod:`repro.fastgraph.kernels` are stdlib-only so the library's
no-dependency guarantee holds; when numpy is importable the offline pass
(:mod:`repro.fastgraph.vectorised`) runs as batched array programs over
these views — bit-identical outputs, used whenever numpy imports (see
``docs/backends.md``).

Neighbour order inside a row follows the source graph's adjacency insertion
order, which keeps :meth:`CSRGraph.thaw` a faithful round-trip.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING

from repro.exceptions import GraphError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.graph.social_network import SocialNetwork

try:  # Optional fast path, auto-detected once at import.
    import numpy as _np

    NUMPY_AVAILABLE = True
except ImportError:  # pragma: no cover - exercised only without numpy
    _np = None
    NUMPY_AVAILABLE = False

#: numpy's version string, or ``None`` when numpy is not installed
#: (surfaced by ``engine.describe()`` / ``/v1/health`` next to the active
#: kernel tier).
NUMPY_VERSION = _np.__version__ if NUMPY_AVAILABLE else None

from repro.fastgraph.vertex_table import VertexTable

#: array typecodes: signed 64-bit ints for ids, doubles for probabilities.
_INT = "q"
_FLOAT = "d"


class CSRGraph:
    """An immutable array-backed snapshot of a social network.

    Build one with :func:`freeze` (or ``SocialNetwork.freeze()``); convert
    back with :meth:`thaw`.  Instances are read-only: the dynamic layer
    never edits a ``CSRGraph`` in place — it wraps one in a mutable
    :class:`~repro.fastgraph.delta.DeltaCSR` overlay (tombstones + spill)
    and folds the overlay back into a fresh ``CSRGraph`` when it compacts
    (see ``docs/backends.md``).
    """

    __slots__ = (
        "name",
        "table",
        "indptr",
        "indices",
        "prob_out",
        "prob_in",
        "arc_edge",
        "edge_u",
        "edge_v",
        "keywords",
    )

    def __init__(
        self,
        name: str,
        table: VertexTable,
        indptr: array,
        indices: array,
        prob_out: array,
        prob_in: array,
        arc_edge: array,
        edge_u: array,
        edge_v: array,
        keywords: tuple,
    ) -> None:
        self.name = name
        self.table = table
        self.indptr = indptr
        self.indices = indices
        self.prob_out = prob_out
        self.prob_in = prob_in
        self.arc_edge = arc_edge
        self.edge_u = edge_u
        self.edge_v = edge_v
        self.keywords = keywords

    # ------------------------------------------------------------------ #
    # shape
    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        """``|V|`` of the snapshot."""
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        """``|E|`` (undirected structural edges) of the snapshot."""
        return len(self.edge_u)

    @property
    def num_arcs(self) -> int:
        """Number of directed half-edges (``2 |E|``)."""
        return len(self.indices)

    #: Frozen snapshots never mutate (the :class:`GraphCore` sync contract;
    #: mutable cores append touched vertices here).
    mutation_log: tuple = ()

    def degree(self, vertex: int) -> int:
        """Structural degree of dense vertex ``vertex``."""
        return self.indptr[vertex + 1] - self.indptr[vertex]

    def neighbors(self, vertex: int) -> array:
        """The neighbour ints of dense vertex ``vertex`` (a slice copy)."""
        return self.indices[self.indptr[vertex] : self.indptr[vertex + 1]]

    def arcs(self, vertex: int):
        """Out-arcs of ``vertex`` as ``(head, p_out, p_in, edge_id)`` tuples.

        The :class:`~repro.graph.core.GraphCore` arc-iteration surface shared
        with :class:`~repro.fastgraph.delta.DeltaCSR` and
        :class:`~repro.graph.core.AdjacencyCore`; kernels and workspaces
        consume any of the three through it.
        """
        indices, prob_out, prob_in = self.indices, self.prob_out, self.prob_in
        arc_edge = self.arc_edge
        for a in range(self.indptr[vertex], self.indptr[vertex + 1]):
            yield indices[a], prob_out[a], prob_in[a], arc_edge[a]

    def edge_endpoints(self, edge_id: int) -> tuple:
        """The dense endpoint ints ``(u, v)`` of ``edge_id`` (``u < v``)."""
        return self.edge_u[edge_id], self.edge_v[edge_id]

    def edge_key(self, edge_id: int) -> frozenset:
        """The reference-style ``frozenset`` key of ``edge_id`` (original ids)."""
        id_of = self.table.id_of
        return frozenset((id_of(self.edge_u[edge_id]), id_of(self.edge_v[edge_id])))

    def keywords_of(self, vertex: int) -> frozenset:
        """Keyword set of dense vertex ``vertex``."""
        return self.keywords[vertex]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CSRGraph(name={self.name!r}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges})"
        )

    # ------------------------------------------------------------------ #
    # conversions
    # ------------------------------------------------------------------ #
    def thaw(self) -> "SocialNetwork":
        """Materialise a mutable :class:`SocialNetwork` equal to this snapshot.

        The result has the same vertex ids, keyword sets, structural edges
        and per-direction probabilities as the graph this snapshot was frozen
        from (vertex iteration order is preserved; neighbour order within a
        vertex may differ, which no public API depends on).  The dynamic
        layer uses this to drop back to the reference representation.
        """
        from repro.graph.social_network import SocialNetwork

        graph = SocialNetwork(name=self.name)
        id_of = self.table.id_of
        for index in range(self.num_vertices):
            graph.add_vertex(id_of(index), self.keywords[index])
        indptr, indices = self.indptr, self.indices
        prob_out, prob_in = self.prob_out, self.prob_in
        for u in range(self.num_vertices):
            u_id = id_of(u)
            for a in range(indptr[u], indptr[u + 1]):
                v = indices[a]
                if v > u or not graph.has_edge(u_id, id_of(v)):
                    graph.add_edge(u_id, id_of(v), prob_out[a], prob_in[a])
        return graph

    def as_numpy(self) -> dict:
        """Return the CSR buffers as zero-copy numpy arrays.

        Requires numpy (:data:`NUMPY_AVAILABLE`); the returned dict maps
        field names (``indptr``, ``indices``, ``prob_out``, ``prob_in``,
        ``arc_edge``, ``edge_u``, ``edge_v``) to ndarrays sharing memory
        with the stdlib buffers.

        Raises
        ------
        GraphError
            If numpy is not installed.
        """
        if not NUMPY_AVAILABLE:  # pragma: no cover - exercised only without numpy
            raise GraphError(
                "numpy is not installed; the CSR buffers are stdlib array.array "
                "objects (install numpy to get zero-copy ndarray views)"
            )
        return {
            "indptr": _np.frombuffer(self.indptr, dtype=_np.int64),
            "indices": _np.frombuffer(self.indices, dtype=_np.int64),
            "prob_out": _np.frombuffer(self.prob_out, dtype=_np.float64),
            "prob_in": _np.frombuffer(self.prob_in, dtype=_np.float64),
            "arc_edge": _np.frombuffer(self.arc_edge, dtype=_np.int64),
            "edge_u": _np.frombuffer(self.edge_u, dtype=_np.int64),
            "edge_v": _np.frombuffer(self.edge_v, dtype=_np.int64),
        }


def freeze(graph: "SocialNetwork") -> CSRGraph:
    """Freeze ``graph`` into a :class:`CSRGraph` snapshot.

    Interning is deterministic (vertex iteration order), so freezing an
    unchanged graph twice yields snapshots with identical tables and
    buffers.  Cost is ``O(|V| + |E|)``.
    """
    table = VertexTable(graph.vertices())
    n = len(table)
    adjacency = graph.adjacency()
    index_of = table.index_of

    indptr = array(_INT, [0] * (n + 1))
    degrees = [0] * n
    for u_id, neighbours in adjacency.items():
        degrees[index_of(u_id)] = len(neighbours)
    total = 0
    for u in range(n):
        indptr[u] = total
        total += degrees[u]
    indptr[n] = total

    indices = array(_INT, [0] * total)
    prob_out = array(_FLOAT, [0.0] * total)
    prob_in = array(_FLOAT, [0.0] * total)
    arc_edge = array(_INT, [0] * total)
    edge_u_list: list[int] = []
    edge_v_list: list[int] = []
    edge_ids: dict[tuple[int, int], int] = {}

    prob = graph._prob  # internal read-only access; freeze is a graph method
    cursor = list(indptr[:n])
    for u_id, neighbours in adjacency.items():
        u = index_of(u_id)
        position = cursor[u]
        for v_id in neighbours:
            v = index_of(v_id)
            key = (u, v) if u < v else (v, u)
            edge_id = edge_ids.get(key)
            if edge_id is None:
                edge_id = len(edge_u_list)
                edge_ids[key] = edge_id
                edge_u_list.append(key[0])
                edge_v_list.append(key[1])
            indices[position] = v
            prob_out[position] = prob[(u_id, v_id)]
            prob_in[position] = prob[(v_id, u_id)]
            arc_edge[position] = edge_id
            position += 1
        cursor[u] = position

    keywords = tuple(graph.keywords(table.id_of(i)) for i in range(n))
    return CSRGraph(
        name=graph.name,
        table=table,
        indptr=indptr,
        indices=indices,
        prob_out=prob_out,
        prob_in=prob_in,
        arc_edge=arc_edge,
        edge_u=array(_INT, edge_u_list),
        edge_v=array(_INT, edge_v_list),
        keywords=keywords,
    )
