"""Array-based graph kernels over dense ints.

Each kernel mirrors a reference implementation exactly — same floats, same
ints — but runs over the CSR buffers of a
:class:`~repro.fastgraph.csr.CSRGraph` instead of dict-of-dicts adjacency:

* :func:`edge_supports_csr` — stamp-based triangle counting
  (vs :func:`repro.truss.support.edge_support`);
* :func:`truss_decomposition_csr` — bucket peel over int edge ids
  (vs :func:`repro.truss.decomposition.truss_decomposition`);
* :class:`CSRWorkspace` ``.bfs_ball`` — hop balls with stamp reset
  (vs :func:`repro.graph.traversal.bfs_distances`);
* :class:`CSRWorkspace` ``.qualified`` / ``.qualified_truss`` — a query's
  keyword-qualified vertices Q from per-keyword postings, and T_Q, the
  maximal k-truss of G[Q] that holds every seed community of the query,
  with its connected components;
* :class:`CSRWorkspace` ``.seed_community`` — the online seed community,
  answered from the centre's T_Q component or by a fixpoint over int sets
  (vs :func:`repro.query.seed.extract_seed_community`);
* :class:`CSRWorkspace` ``.propagate`` / :func:`community_propagation_csr` —
  truncated multi-source max-product Dijkstra
  (vs :func:`repro.influence.propagation.community_propagation`).

Why the float outputs are bit-identical, not merely close: max-product
Dijkstra relaxes with the same operation (``settled(parent) * p(edge)``) in
both backends, so the candidate value set per vertex is identical and its
maximum is too, regardless of tie-breaking.  Sums over propagation results
(score bounds, influential scores) iterate in pop order, which Dijkstra
guarantees is non-increasing in probability — a descending ordering of a
multiset is unique, so the floating-point sum is reproduced exactly.  The
cross-backend property suite (``tests/fastgraph``) enforces all of this.

Scratch buffers live in a :class:`CSRWorkspace` and are reset in
``O(touched)`` after each call, so per-centre kernels cost proportional to
the region they visit, not to ``|V|``.

The kernels here are pure Python, with no dependencies, and every query,
refresh and peel runs them.  Only the offline pass has a second
implementation: when numpy imports,
:func:`~repro.fastgraph.offline.fast_precompute` counts supports and
aggregates the per-centre balls with the batched array programs of
:mod:`repro.fastgraph.vectorised` (bit-identical outputs; see
``docs/backends.md``).
"""

from __future__ import annotations

from array import array
from heapq import heapify, heappop, heappush
from typing import Iterable, Optional

from repro.exceptions import GraphError
from repro.fastgraph.csr import CSRGraph
from repro.influence.propagation import InfluencedCommunity
from repro.truss.decomposition import TrussDecomposition


# --------------------------------------------------------------------------- #
# triangle / support counting
# --------------------------------------------------------------------------- #
def edge_supports_csr(csr: CSRGraph, lists: Optional[tuple] = None) -> array:
    """Return ``sup(e)`` for every undirected edge id of ``csr``.

    Stamp-based counting: for each vertex ``u`` (ascending), mark ``N(u)``
    in a stamp array, then for each neighbour ``v > u`` count the marked
    members of ``N(v)``.  Each edge is counted exactly once, with no set or
    tuple allocation in the inner loop.

    ``lists`` is an optional pre-materialised ``(indptr, indices, arc_edge)``
    triple of Python lists; repeated callers pass it to skip the O(|E|)
    buffer-to-list conversion per call.
    """
    n = csr.num_vertices
    if lists is None:
        lists = (csr.indptr.tolist(), csr.indices.tolist(), csr.arc_edge.tolist())
    indptr, indices, arc_edge = lists
    supports = [0] * csr.num_edges
    marker = [-1] * n
    for u in range(n):
        start, end = indptr[u], indptr[u + 1]
        for a in range(start, end):
            marker[indices[a]] = u
        for a in range(start, end):
            v = indices[a]
            if v <= u:
                continue
            count = 0
            for b in range(indptr[v], indptr[v + 1]):
                if marker[indices[b]] == u:
                    count += 1
            supports[arc_edge[a]] = count
    return array("q", supports)


def supports_as_dict(csr: CSRGraph, supports: Iterable[int]) -> dict:
    """Convert a per-edge-id support sequence to the reference dict form.

    The result is keyed by ``frozenset((u, v))`` over original vertex ids,
    matching :func:`repro.truss.support.edge_support` exactly.
    """
    id_of = csr.table.id_of
    edge_u = csr.edge_u
    edge_v = csr.edge_v
    return {
        frozenset((id_of(edge_u[e]), id_of(edge_v[e]))): value
        for e, value in enumerate(supports)
    }


# --------------------------------------------------------------------------- #
# truss decomposition
# --------------------------------------------------------------------------- #
def truss_peel(
    csr: CSRGraph,
    supports: Optional[Iterable[int]] = None,
    lists: Optional[tuple] = None,
):
    """Peel ``csr`` bottom-up; return per-edge and per-vertex trussness lists.

    The peel is the same algorithm as the reference decomposition — lowest
    remaining support first, trussness ``s + 2`` clamped monotonically — but
    runs over int edge ids with list buckets and lazy stale entries instead
    of frozenset-keyed dicts of sets.  ``lists`` is the same optional
    pre-materialised ``(indptr, indices, arc_edge)`` triple
    :func:`edge_supports_csr` takes.
    """
    n = csr.num_vertices
    m = csr.num_edges
    if lists is None:
        lists = (csr.indptr.tolist(), csr.indices.tolist(), csr.arc_edge.tolist())
    if supports is None:
        supports = edge_supports_csr(csr, lists)
    current = list(supports)
    edge_u = csr.edge_u.tolist()
    edge_v = csr.edge_v.tolist()

    # Neighbour -> edge-id maps; shrink as edges peel off.
    adjacency: list[dict[int, int]] = [{} for _ in range(n)]
    indptr, indices, arc_edge = lists
    for u in range(n):
        row = adjacency[u]
        for a in range(indptr[u], indptr[u + 1]):
            row[indices[a]] = arc_edge[a]

    max_support = max(current, default=0)
    buckets: list[list[int]] = [[] for _ in range(max_support + 1)]
    for e in range(m):
        buckets[current[e]].append(e)

    edge_truss = [0] * m
    removed = bytearray(m)
    pointer = 0
    k_floor = 2
    remaining = m
    while remaining:
        while pointer <= max_support and not buckets[pointer]:
            pointer += 1
        if pointer > max_support:
            break
        e = buckets[pointer].pop()
        if removed[e] or current[e] != pointer:
            continue  # stale bucket entry; the live one sits in a lower bucket
        support = pointer
        if support + 2 > k_floor:
            k_floor = support + 2
        edge_truss[e] = k_floor
        removed[e] = 1
        remaining -= 1

        u, v = edge_u[e], edge_v[e]
        row_u, row_v = adjacency[u], adjacency[v]
        del row_u[v]
        del row_v[u]
        small, big = (row_u, row_v) if len(row_u) <= len(row_v) else (row_v, row_u)
        for w, e1 in small.items():
            e2 = big.get(w)
            if e2 is None:
                continue
            for other in (e1, e2):
                if removed[other]:
                    continue
                old = current[other]
                if old > support:
                    current[other] = old - 1
                    buckets[old - 1].append(other)

    vertex_truss = [2] * n
    for e in range(m):
        trussness = edge_truss[e]
        u, v = edge_u[e], edge_v[e]
        if trussness > vertex_truss[u]:
            vertex_truss[u] = trussness
        if trussness > vertex_truss[v]:
            vertex_truss[v] = trussness
    return edge_truss, vertex_truss


def truss_decomposition_csr(
    csr: CSRGraph, supports: Optional[Iterable[int]] = None
) -> TrussDecomposition:
    """Full truss decomposition of ``csr`` in the reference result type.

    Values are identical to
    :func:`repro.truss.decomposition.truss_decomposition` on the thawed
    graph (trussness is a graph invariant, independent of peel tie-breaks).
    """
    edge_truss, vertex_truss = truss_peel(csr, supports)
    id_of = csr.table.id_of
    edge_u, edge_v = csr.edge_u, csr.edge_v
    edge_trussness = {
        frozenset((id_of(edge_u[e]), id_of(edge_v[e]))): edge_truss[e]
        for e in range(csr.num_edges)
    }
    vertex_trussness = {id_of(v): vertex_truss[v] for v in range(csr.num_vertices)}
    return TrussDecomposition(
        edge_trussness=edge_trussness, vertex_trussness=vertex_trussness
    )


def _peel_truss(adjacency: dict, need: int, required: int) -> None:
    """Peel an int adjacency map in place down to its maximal k-truss.

    ``adjacency`` maps each vertex to the set of its neighbours in the
    subgraph being peeled; ``need = k - 1`` and ``required = k - 2``.
    Vertices of degree below ``need`` go first (the k-truss lies inside the
    (k-1)-core) and leave the map; then edges of support below ``required``
    are peeled under int-pair keys.  A vertex whose edges all peel away
    stays in the map with an empty row, so the truss's vertex set is the
    keys with a non-empty row.
    """
    stack = [u for u, row in adjacency.items() if len(row) < need]
    while stack:
        u = stack.pop()
        for w in adjacency.pop(u):
            row = adjacency[w]
            row.discard(u)
            if len(row) == need - 1:
                stack.append(w)
    if required <= 0:
        return
    supports = {}
    queue = []
    for u, row in adjacency.items():
        for v in row:
            if u < v:
                support = len(row & adjacency[v])
                supports[u, v] = support
                if support < required:
                    queue.append((u, v))
    while queue:
        u, v = queue.pop()
        row_u, row_v = adjacency[u], adjacency[v]
        row_u.discard(v)
        row_v.discard(u)
        for w in row_u & row_v:
            for key in ((u, w) if u < w else (w, u), (v, w) if v < w else (w, v)):
                support = supports[key] - 1
                supports[key] = support
                if support == required - 1:
                    queue.append(key)


# --------------------------------------------------------------------------- #
# per-centre workspace: BFS balls and max-product propagation
# --------------------------------------------------------------------------- #
class CSRWorkspace:
    """Reusable scratch state for the per-centre kernels.

    One workspace amortises the per-vertex arc extraction of a graph core
    and owns the stamp arrays (hop distances, best probabilities, settled
    flags), which are cleaned up after each call in time proportional to the
    vertices touched.  A workspace is single-threaded; create one per worker.

    The core may be a frozen :class:`~repro.fastgraph.csr.CSRGraph` or a
    mutable :class:`~repro.fastgraph.delta.DeltaCSR` overlay — anything with
    ``num_vertices`` and ``arcs(u)`` (the :class:`~repro.graph.core.GraphCore`
    read surface).  For mutable cores, :meth:`sync` re-derives exactly the
    per-vertex entries whose arcs changed since the last sync, using the
    core's ``mutation_log``; a workspace therefore survives dynamic updates
    without being rebuilt from scratch.
    """

    __slots__ = (
        "core", "n",
        "neighbor_ints", "ranked_arcs", "edge_arcs", "_entries_ready",
        "dist", "order", "_best", "_popped", "_log_offset", "_postings",
    )

    def __init__(self, core) -> None:
        self.core = core
        self.n = core.num_vertices
        #: Per-vertex neighbour tuples in arc order (BFS, shell scans).
        self.neighbor_ints: list[tuple] = []
        #: Per-vertex ``(p_out, neighbour)`` tuples sorted by descending
        #: probability, so a relaxation sweep can stop at the first product
        #: below the threshold (everything after is smaller still).  Arcs
        #: with ``p == 0`` can never contribute and are dropped outright,
        #: exactly as the reference skips them.
        self.ranked_arcs: list[tuple] = []
        #: Per-vertex ``(edge id, neighbour)`` tuples in arc order (the
        #: offline shell scans look supports up by edge id).
        self.edge_arcs: list[tuple] = []
        self._entries_ready = False
        #: Hop distances of the most recent :meth:`bfs_ball` (-1 = unreached).
        self.dist = [-1] * self.n
        #: Visit order of the most recent :meth:`bfs_ball`.
        self.order: list[int] = []
        self._best = [0.0] * self.n
        self._popped = bytearray(self.n)
        self._log_offset = len(getattr(core, "mutation_log", ()))
        #: ``keyword -> [vertex int]`` postings, built on the first
        #: :meth:`qualified` call and extended by :meth:`sync`.
        self._postings: Optional[dict] = None

    def ensure_entries(self) -> None:
        """Materialise the per-vertex entry tuples (no-op once built).

        Construction defers them: an engine builds its workspace while it
        adopts a snapshot (opening a store, rebinding a session), and the
        O(|E|) tuple build belongs to the first kernel that reads them, not
        to that setup.  Every kernel that sweeps :attr:`neighbor_ints` /
        :attr:`ranked_arcs` / :attr:`edge_arcs` therefore calls this first.
        """
        if self._entries_ready:
            return
        self._entries_ready = True
        for u in range(self.n):
            neighbors, ranked, edges = self._vertex_entries(u)
            self.neighbor_ints.append(neighbors)
            self.ranked_arcs.append(ranked)
            self.edge_arcs.append(edges)

    def _vertex_entries(self, vertex: int) -> tuple[tuple, tuple, tuple]:
        neighbors: list[int] = []
        ranked: list[tuple[float, int]] = []
        edges: list[tuple[int, int]] = []
        for head, p_out, _, edge_id in self.core.arcs(vertex):
            neighbors.append(head)
            edges.append((edge_id, head))
            if p_out > 0.0:
                ranked.append((p_out, head))
        ranked.sort(reverse=True)
        return tuple(neighbors), tuple(ranked), tuple(edges)

    def rebind(self, core) -> None:
        """Adopt a core whose live arcs currently equal this workspace's.

        Used when the engine wraps a pristine snapshot into a
        :class:`~repro.fastgraph.delta.DeltaCSR` overlay: the arc sets are
        identical at that moment, so every derived entry carries over and
        only the mutation-log cursor resets.
        """
        self.core = core
        self._log_offset = len(getattr(core, "mutation_log", ()))

    def sync(self) -> int:
        """Absorb the core's mutations since the last sync; return the count.

        Re-derives the per-vertex entries of every vertex in the core's
        ``mutation_log`` tail (deduplicated) and grows the stamp arrays for
        newly interned vertices — O(touched arcs), not O(graph).  Frozen
        cores have an empty log, so this is a no-op for them.

        The keyword postings grow by the new vertices alone: a core sets a
        vertex's keywords only when it interns the vertex (see
        :meth:`~repro.fastgraph.delta.DeltaCSR.note_insert`) and vertex
        ints are append-only, so the rows of earlier vertices never change.
        """
        log = getattr(self.core, "mutation_log", ())
        if len(log) <= self._log_offset:
            return 0
        self.ensure_entries()
        dirty = set(log[self._log_offset:])
        self._log_offset = len(log)
        interned = self.n
        grown = self.core.num_vertices
        while self.n < grown:
            self.neighbor_ints.append(())
            self.ranked_arcs.append(())
            self.edge_arcs.append(())
            self.dist.append(-1)
            self._best.append(0.0)
            self._popped.append(0)
            self.n += 1
        if self._postings is not None:
            self._post_keywords(interned)
        for vertex in dirty:
            neighbors, ranked, edges = self._vertex_entries(vertex)
            self.neighbor_ints[vertex] = neighbors
            self.ranked_arcs[vertex] = ranked
            self.edge_arcs[vertex] = edges
        return len(dirty)

    def _post_keywords(self, start: int) -> None:
        """Append vertices ``start .. n-1`` to the keyword postings."""
        postings = self._postings
        keywords_of = self.core.keywords_of
        for vertex in range(start, self.n):
            for keyword in keywords_of(vertex):
                row = postings.get(keyword)
                if row is None:
                    postings[keyword] = [vertex]
                else:
                    row.append(vertex)

    def qualified(self, keywords) -> set:
        """The query's qualified vertices Q as a set of vertex ints.

        Q holds every vertex carrying at least one of ``keywords`` — the
        union of their posting lists, so the cost is O(|Q|) set work.  The
        postings are built on the first call (one pass over the core's
        keyword sets) and kept current by :meth:`sync`; a compaction or
        rebuild swaps the whole workspace, so they rebuild with it.
        """
        if self._postings is None:
            self._postings = {}
            self._post_keywords(0)
        members: set = set()
        postings = self._postings
        for keyword in keywords:
            row = postings.get(keyword)
            if row is not None:
                members.update(row)
        return members

    def qualified_truss(self, members, k: int) -> dict:
        """T_Q, the maximal k-truss of the qualified induced subgraph G[Q].

        ``members`` is :meth:`qualified`'s set Q.  Returns a map from each
        T_Q vertex (an endpoint of a surviving edge) to its connected
        component of T_Q, one shared ``frozenset`` per component, taken
        over the truss edges that survive the peel; T_Q's vertex set is
        the map's keys.  Every seed community of the query lies inside its
        centre's component (see :meth:`seed_community`).
        """
        self.ensure_entries()
        neighbor_ints = self.neighbor_ints
        adjacency = {u: members.intersection(neighbor_ints[u]) for u in members}
        _peel_truss(adjacency, k - 1, k - 2)
        components: dict = {}
        for root, row in adjacency.items():
            if not row or root in components:
                continue
            seen = {root}
            stack = [root]
            while stack:
                fresh = adjacency[stack.pop()] - seen
                seen |= fresh
                stack.extend(fresh)
            component = frozenset(seen)
            for vertex in component:
                components[vertex] = component
        return components

    def bfs_ball(self, source: int, max_depth: int) -> list[int]:
        """BFS from ``source`` to ``max_depth`` hops.

        Returns the visit order (non-decreasing hop distance); distances are
        readable from :attr:`dist` until the next call, which resets only
        the entries the previous call touched.
        """
        self.ensure_entries()
        dist = self.dist
        for vertex in self.order:
            dist[vertex] = -1
        neighbor_ints = self.neighbor_ints
        order = [source]
        dist[source] = 0
        head = 0
        while head < len(order):
            vertex = order[head]
            head += 1
            depth = dist[vertex]
            if depth >= max_depth:
                continue
            next_depth = depth + 1
            for neighbour in neighbor_ints[vertex]:
                if dist[neighbour] < 0:
                    dist[neighbour] = next_depth
                    order.append(neighbour)
        self.order = order
        return order

    def seed_community(self, center: int, radius: int, k: int, components) -> Optional[set]:
        """The Definition 2 seed community of ``center`` as a set of vertex ints.

        Int-space twin of :func:`repro.query.seed.extract_seed_community`:
        the largest connected k-truss containing ``center`` whose vertices
        all carry a query keyword and lie within ``radius`` hops of
        ``center`` *inside the community*.  ``components`` is
        :meth:`qualified_truss`'s component map of T_Q for the same query
        and ``k``.  Returns ``None`` when no such community exists.

        Why the answer equals the reference extractor's exactly.  Call a
        vertex set *valid* when it contains ``center``, is all qualified,
        equals the k-truss component of ``center`` in its induced subgraph,
        and keeps every member within ``radius`` hops inside itself.  Both
        reductions of the fixpoint loop — "keep the truss component of
        ``center``" and "keep the vertices within ``radius`` hops" — never
        drop a member of a valid subset (a k-truss of a subgraph is a
        k-truss of any supergraph; distances only shrink in a supergraph).
        So from *any* start set ``S`` containing the maximal valid set
        ``F``, the loop stops at a valid set holding every valid subset of
        ``S`` — that is ``F`` itself, whatever the order of the reductions.
        The reference starts from ``hop(center, r)`` filtered to qualified
        vertices; this kernel answers at once or starts from a smaller
        ``S``:

        * **qualified core** — ``F``'s truss edges form a k-truss subgraph
          of G[Q], so they survive the peel of G[Q] and connect ``F`` to
          the centre inside T_Q: ``F`` lies inside the centre's component
          ``K``.  A centre outside T_Q returns ``None`` at once.
        * **component shortcut** — BFS G[K], non-truss edges included, to
          depth ``radius``.  If that reaches all of ``K``, then ``K`` — a
          connected k-truss of qualified vertices, which peeling G[K]
          keeps — is itself valid, so ``K ⊆ F`` and ``K`` is the answer.
        * **fallback** — otherwise the G[K] ball holds ``F`` (each member
          has a path of at most ``radius`` hops inside ``F ⊆ K``), and the
          fixpoint starts from it.

        The truss reduction peels the induced subgraph locally with
        :func:`_peel_truss`, the same peel :meth:`qualified_truss` runs on
        G[Q].  The radius re-check BFSes the induced subgraph, non-truss
        edges included, exactly as the reference measures it.
        """
        cluster = components.get(center)
        if cluster is None:
            return None
        self.ensure_entries()
        neighbor_ints = self.neighbor_ints
        need = k - 1
        required = k - 2
        current = {center}
        frontier = [center]
        for _ in range(radius):
            reached = []
            for u in frontier:
                fresh = cluster.intersection(neighbor_ints[u])
                fresh -= current
                current |= fresh
                reached.extend(fresh)
            frontier = reached
        if len(current) == len(cluster):
            return cluster

        while True:
            # Truss reduction: (k-1)-core and support peel, then the
            # centre's component over the surviving truss edges.
            adjacency = {u: current.intersection(neighbor_ints[u]) for u in current}
            _peel_truss(adjacency, need, required)
            if not adjacency.get(center):
                return None
            component = {center}
            stack = [center]
            while stack:
                fresh = adjacency[stack.pop()] - component
                component |= fresh
                stack.extend(fresh)
            if len(component) < len(current):
                current = component
                continue

            # Radius reduction: hop distances inside the induced subgraph.
            within = {center}
            frontier = [center]
            for _ in range(radius):
                reached = []
                for u in frontier:
                    fresh = current.intersection(neighbor_ints[u])
                    fresh -= within
                    within |= fresh
                    reached.extend(fresh)
                frontier = reached
            if len(within) < len(current):
                current = within
                continue
            return current

    def propagate(self, seeds, threshold: float) -> list:
        """Truncated multi-source max-product Dijkstra from ``seeds``.

        Returns ``(vertex, probability)`` pairs in pop order (probability
        non-increasing), the same value sequence — up to reordering of equal
        probabilities, which no consumer can observe — as the reference
        :func:`~repro.influence.propagation.community_propagation`.

        Three exact work reducers over the reference loop:

        * seeds settle up front at probability 1 (nothing can beat 1), so
          they never enter the heap;
        * relaxations sweep :attr:`ranked_arcs` and *stop* at the first
          product below the threshold — the arcs are probability-sorted, so
          every later product is below it too;
        * pushes dominated by an already-pushed better probability are
          skipped (``best`` tracks the max pushed per vertex).

        None of this changes any settled value: the settled probability of a
        vertex is the maximum over stepwise path products from the seeds,
        and each reducer only drops candidates that are provably not the
        maximum (or reorders the sweep within one vertex).
        """
        self.ensure_entries()
        best = self._best
        popped = self._popped
        ranked_arcs = self.ranked_arcs
        seeds = list(seeds)
        touched = list(seeds)
        result = []
        for seed in seeds:
            best[seed] = 1.0
            popped[seed] = 1
            result.append((seed, 1.0))
        heap = []
        for seed in seeds:
            for edge_probability, neighbour in ranked_arcs[seed]:
                if edge_probability < threshold:
                    break
                if popped[neighbour] or edge_probability <= best[neighbour]:
                    continue
                if best[neighbour] == 0.0:
                    touched.append(neighbour)
                best[neighbour] = edge_probability
                heap.append((-edge_probability, neighbour))
        heapify(heap)
        while heap:
            negative_probability, vertex = heappop(heap)
            if popped[vertex]:
                continue
            popped[vertex] = 1
            probability = -negative_probability
            result.append((vertex, probability))
            for edge_probability, neighbour in ranked_arcs[vertex]:
                next_probability = probability * edge_probability
                if next_probability < threshold:
                    break
                if popped[neighbour] or next_probability <= best[neighbour]:
                    continue
                if best[neighbour] == 0.0:
                    touched.append(neighbour)
                best[neighbour] = next_probability
                heappush(heap, (-next_probability, neighbour))
        for vertex in touched:
            best[vertex] = 0.0
            popped[vertex] = 0
        return result


def community_propagation_csr(
    csr: CSRGraph,
    seed_vertices: Iterable,
    threshold: float,
    workspace: Optional[CSRWorkspace] = None,
) -> InfluencedCommunity:
    """``calculate_influence(g, theta)`` over the CSR snapshot.

    Drop-in equivalent of
    :func:`repro.influence.propagation.community_propagation`: takes and
    returns *original* vertex ids, and produces identical ``cpp`` values and
    an identical influential score.  Pass a shared ``workspace`` when
    scoring many communities against one snapshot.
    """
    seeds = frozenset(seed_vertices)
    if not seeds:
        raise GraphError("seed community must contain at least one vertex")
    if not 0.0 <= threshold < 1.0:
        raise GraphError(f"influence threshold must be in [0, 1), got {threshold}")
    index_of = csr.table.index_of
    seed_ints = [index_of(vertex) for vertex in seeds]
    if workspace is None:
        workspace = CSRWorkspace(csr)
    pairs = workspace.propagate(seed_ints, threshold)
    id_of = csr.table.id_of
    cpp = {id_of(vertex): probability for vertex, probability in pairs}
    return InfluencedCommunity(seed_vertices=seeds, cpp=cpp, threshold=threshold)
