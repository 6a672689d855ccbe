"""Core social-network data model.

The paper (Definition 1) models a social network as an attributed, weighted
graph ``G = (V(G), E(G), Phi(G))`` in which

* every vertex ``v_i`` carries a keyword set ``v_i.W`` describing the topics
  the user is interested in, and
* every edge ``e_{u,v}`` carries a propagation probability ``p_{u,v}`` — the
  probability that user ``u`` activates user ``v``.

The *structure* of the network is undirected (friendship / co-authorship /
co-purchase ties), while influence flows directionally along an edge: the
probability ``p_{u,v}`` that ``u`` activates ``v`` may differ from ``p_{v,u}``.
:class:`SocialNetwork` therefore stores an undirected adjacency structure and
a per-direction probability for each structural edge.

The class is intentionally free of third-party dependencies: the adjacency is
a dict-of-dicts, which keeps neighbour iteration, membership tests and copies
cheap, and needs no graph library such as ``networkx``.  Edge-list
and JSON readers and writers live in :mod:`repro.graph.io`.
"""

from __future__ import annotations

import threading
from collections.abc import Hashable, Iterable, Iterator, Mapping
from typing import Optional

from repro.exceptions import (
    EdgeNotFoundError,
    GraphError,
    InvalidProbabilityError,
    VertexNotFoundError,
)

VertexId = Hashable
KeywordSet = frozenset


def _validate_probability(value: float) -> float:
    """Return ``value`` coerced to ``float`` after range-checking it."""
    try:
        value = float(value)
    except (TypeError, ValueError) as exc:
        raise InvalidProbabilityError(value) from exc
    if not 0.0 <= value <= 1.0:
        raise InvalidProbabilityError(value)
    return value


class SocialNetwork:
    """An attributed, weighted social network.

    Parameters
    ----------
    name:
        Optional human-readable name (used by dataset registries and reports).

    Notes
    -----
    * Vertices may be any hashable object (ints and strings in practice).
    * ``add_edge(u, v, p_uv, p_vu)`` creates one *structural* (undirected)
      edge with two directional activation probabilities.  When ``p_vu`` is
      omitted it defaults to ``p_uv`` (symmetric influence).
    * Self-loops are rejected: they carry no structural or influence meaning
      in the paper's model.
    """

    __slots__ = ("name", "_adj", "_keywords", "_prob", "_num_edges")

    def __init__(self, name: str = "social-network") -> None:
        self.name = name
        # _adj[u] is the set of structural neighbours of u (as a dict for
        # deterministic ordering; values are unused placeholders).
        self._adj: dict[VertexId, dict[VertexId, None]] = {}
        # _keywords[u] is the frozen keyword set of u.
        self._keywords: dict[VertexId, KeywordSet] = {}
        # _prob[(u, v)] is the probability that u activates v.  Both
        # directions are stored explicitly for every structural edge.
        self._prob: dict[tuple[VertexId, VertexId], float] = {}
        # Number of structural edges, kept by every mutator so that
        # num_edges() is O(1).
        self._num_edges = 0

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_vertex(self, vertex: VertexId, keywords: Iterable[str] = ()) -> None:
        """Add ``vertex`` with the given keyword set.

        Adding an existing vertex merges the new keywords into its set.
        """
        if vertex not in self._adj:
            self._adj[vertex] = {}
            self._keywords[vertex] = frozenset(keywords)
        elif keywords:
            self._keywords[vertex] = self._keywords[vertex] | frozenset(keywords)

    def add_edge(
        self,
        u: VertexId,
        v: VertexId,
        p_uv: float = 0.5,
        p_vu: Optional[float] = None,
    ) -> None:
        """Add an undirected structural edge with directional probabilities.

        Parameters
        ----------
        u, v:
            Endpoints.  Missing endpoints are added with empty keyword sets.
        p_uv:
            Probability that ``u`` activates ``v``.
        p_vu:
            Probability that ``v`` activates ``u``; defaults to ``p_uv``.

        Raises
        ------
        GraphError
            If ``u == v`` (self-loop).
        InvalidProbabilityError
            If a probability lies outside ``[0, 1]``.
        """
        if u == v:
            raise GraphError(f"self-loops are not allowed (vertex {u!r})")
        p_uv = _validate_probability(p_uv)
        p_vu = p_uv if p_vu is None else _validate_probability(p_vu)
        self.add_vertex(u)
        self.add_vertex(v)
        if v not in self._adj[u]:
            self._num_edges += 1
        self._adj[u][v] = None
        self._adj[v][u] = None
        self._prob[(u, v)] = p_uv
        self._prob[(v, u)] = p_vu

    def set_keywords(self, vertex: VertexId, keywords: Iterable[str]) -> None:
        """Replace the keyword set of ``vertex``."""
        self._require_vertex(vertex)
        self._keywords[vertex] = frozenset(keywords)

    def set_probability(self, u: VertexId, v: VertexId, p_uv: float) -> None:
        """Set the directional activation probability ``p_{u,v}``."""
        if not self.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        self._prob[(u, v)] = _validate_probability(p_uv)

    def remove_edge(self, u: VertexId, v: VertexId) -> None:
        """Remove the structural edge between ``u`` and ``v``."""
        if not self.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        del self._adj[u][v]
        del self._adj[v][u]
        self._num_edges -= 1
        self._prob.pop((u, v), None)
        self._prob.pop((v, u), None)

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    def __contains__(self, vertex: VertexId) -> bool:
        return vertex in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[VertexId]:
        return iter(self._adj)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SocialNetwork(name={self.name!r}, "
            f"|V|={self.num_vertices()}, |E|={self.num_edges()})"
        )

    def has_vertex(self, vertex: VertexId) -> bool:
        """Return ``True`` if ``vertex`` is in the graph."""
        return vertex in self._adj

    def has_edge(self, u: VertexId, v: VertexId) -> bool:
        """Return ``True`` if the structural edge ``{u, v}`` exists."""
        return u in self._adj and v in self._adj[u]

    def vertices(self) -> Iterator[VertexId]:
        """Iterate over all vertices (insertion order)."""
        return iter(self._adj)

    def edges(self) -> Iterator[tuple[VertexId, VertexId]]:
        """Iterate over structural edges, each reported once as ``(u, v)``.

        The orientation of the reported pair follows insertion order of the
        endpoints; both directions of the probability map remain accessible
        through :meth:`probability`.
        """
        seen: set[frozenset] = set()
        for u, neighbours in self._adj.items():
            for v in neighbours:
                key = frozenset((u, v))
                if key not in seen:
                    seen.add(key)
                    yield (u, v)

    def neighbors(self, vertex: VertexId) -> Iterator[VertexId]:
        """Iterate over the structural neighbours of ``vertex``."""
        self._require_vertex(vertex)
        return iter(self._adj[vertex])

    def neighbor_set(self, vertex: VertexId) -> set:
        """Return the structural neighbours of ``vertex`` as a ``set``."""
        self._require_vertex(vertex)
        return set(self._adj[vertex])

    def degree(self, vertex: VertexId) -> int:
        """Return the structural degree of ``vertex``."""
        self._require_vertex(vertex)
        return len(self._adj[vertex])

    def keywords(self, vertex: VertexId) -> KeywordSet:
        """Return the keyword set ``v.W`` of ``vertex``."""
        self._require_vertex(vertex)
        return self._keywords[vertex]

    def probability(self, u: VertexId, v: VertexId) -> float:
        """Return ``p_{u,v}``, the probability that ``u`` activates ``v``."""
        try:
            return self._prob[(u, v)]
        except KeyError:
            raise EdgeNotFoundError(u, v) from None

    def num_vertices(self) -> int:
        """Return ``|V(G)|``."""
        return len(self._adj)

    def num_edges(self) -> int:
        """Return ``|E(G)|`` (structural, undirected edges)."""
        return self._num_edges

    def keyword_domain(self) -> frozenset:
        """Return the union of all vertex keyword sets (the domain ``Sigma``)."""
        domain: set[str] = set()
        for kw in self._keywords.values():
            domain.update(kw)
        return frozenset(domain)

    def adjacency(self) -> Mapping[VertexId, Mapping[VertexId, None]]:
        """Return a read-only view of the adjacency structure.

        The returned mapping must not be mutated by callers; it is exposed for
        high-performance traversal code (BFS, Dijkstra) inside the library.
        """
        return self._adj

    # ------------------------------------------------------------------ #
    # derived views
    # ------------------------------------------------------------------ #
    def freeze(self):
        """Return an immutable array-backed snapshot of this graph.

        The snapshot is a :class:`repro.fastgraph.csr.CSRGraph`: vertex ids
        interned to dense ints, CSR adjacency, and per-direction probability
        arrays — the representation the ``fast`` backend's kernels run on.
        The snapshot does not track later out-of-band mutations of this
        graph; apply edits through the dynamic layer (which patches a
        :class:`~repro.fastgraph.delta.DeltaCSR` overlay in place) or
        re-freeze (``CSRGraph.thaw()`` converts back).
        """
        from repro.fastgraph.csr import freeze as _freeze

        return _freeze(self)

    def copy(self, name: Optional[str] = None) -> "SocialNetwork":
        """Return a deep structural copy of the graph."""
        clone = SocialNetwork(name=name or self.name)
        clone._adj = {u: dict(nbrs) for u, nbrs in self._adj.items()}
        clone._keywords = dict(self._keywords)
        clone._prob = dict(self._prob)
        clone._num_edges = self._num_edges
        return clone

    def induced_subgraph(
        self, vertices: Iterable[VertexId], name: Optional[str] = None
    ) -> "SocialNetwork":
        """Return the subgraph induced by ``vertices`` as a new graph.

        Vertices not present in the parent graph are ignored; edge
        probabilities and keyword sets are carried over unchanged.
        """
        keep = {v for v in vertices if v in self._adj}
        sub = SocialNetwork(name=name or f"{self.name}-induced")
        for v in keep:
            sub.add_vertex(v, self._keywords[v])
        for v in keep:
            for w in self._adj[v]:
                if w in keep and not sub.has_edge(v, w):
                    sub.add_edge(v, w, self._prob[(v, w)], self._prob[(w, v)])
        return sub

    def connected_component(self, vertex: VertexId) -> set:
        """Return the set of vertices in the connected component of ``vertex``."""
        self._require_vertex(vertex)
        component = {vertex}
        frontier = [vertex]
        while frontier:
            current = frontier.pop()
            for neighbour in self._adj[current]:
                if neighbour not in component:
                    component.add(neighbour)
                    frontier.append(neighbour)
        return component

    def connected_components(self) -> list[set]:
        """Return all connected components, largest first."""
        remaining = set(self._adj)
        components: list[set] = []
        while remaining:
            start = next(iter(remaining))
            component = self.connected_component(start)
            components.append(component)
            remaining -= component
        components.sort(key=len, reverse=True)
        return components

    def is_connected(self) -> bool:
        """Return ``True`` if the graph is connected (empty graphs count as connected)."""
        if not self._adj:
            return True
        start = next(iter(self._adj))
        return len(self.connected_component(start)) == len(self._adj)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _require_vertex(self, vertex: VertexId) -> None:
        if vertex not in self._adj:
            raise VertexNotFoundError(vertex)


#: The slot descriptors of :class:`SocialNetwork`'s contents.  A
#: :class:`LazySocialNetwork` shadows them with thawing properties and sets
#: them through these.
_CONTENT_SLOTS = {
    name: SocialNetwork.__dict__[name] for name in ("_adj", "_keywords", "_prob", "_num_edges")
}
#: Serialises first touches, so no reader sees a half-thawed graph.
_THAW_LOCK = threading.Lock()


class LazySocialNetwork(SocialNetwork):
    """A :class:`SocialNetwork` built from a snapshot on first touch.

    ``source`` is anything with a ``name``, a ``num_vertices`` count and a
    ``thaw()`` returning an equal :class:`SocialNetwork` (a
    :class:`~repro.fastgraph.csr.CSRGraph` in practice).  ``name`` and
    :meth:`num_vertices` read without building anything; the first read
    of the contents (any method, or a private dict directly) thaws the
    source, moves the dicts in and turns this object into a plain
    :class:`SocialNetwork`, so every later access costs what it always
    does.  A store-opened engine hands one of these to its processors: the
    fast backend's reads never touch it, so a read-only session never pays
    for the dict graph.
    """

    __slots__ = ()

    def __init__(self, source) -> None:
        self.name = source.name
        # The ``_adj`` slot parks the source until the first touch.
        _CONTENT_SLOTS["_adj"].__set__(self, source)

    def materialise(self) -> None:
        """Thaw now (no-op once thawed, also if another thread did it)."""
        with _THAW_LOCK:
            if type(self) is not LazySocialNetwork:
                return
            thawed = _CONTENT_SLOTS["_adj"].__get__(self).thaw()
            for slot in _CONTENT_SLOTS.values():
                slot.__set__(self, slot.__get__(thawed))
            self.__class__ = SocialNetwork

    def num_vertices(self) -> int:
        with _THAW_LOCK:
            if type(self) is LazySocialNetwork:
                return _CONTENT_SLOTS["_adj"].__get__(self).num_vertices
        return SocialNetwork.num_vertices(self)

    def __reduce_ex__(self, protocol):
        LazySocialNetwork.materialise(self)
        return object.__reduce_ex__(self, protocol)


def _thawing_slot(name: str) -> property:
    slot = _CONTENT_SLOTS[name]

    def read(self):
        LazySocialNetwork.materialise(self)
        return slot.__get__(self)

    def write(self, value) -> None:
        LazySocialNetwork.materialise(self)
        slot.__set__(self, value)

    return property(read, write)


for _name in _CONTENT_SLOTS:
    setattr(LazySocialNetwork, _name, _thawing_slot(_name))
del _name
