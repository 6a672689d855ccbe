"""Online TopL-ICDE processing (Algorithm 3).

The processor traverses the tree index with a max-heap keyed on the entries'
influential-score upper bounds, prunes entries and leaf vertices with the
rules of Section IV/VI-A, extracts a seed community for every surviving
candidate centre, scores it with ``calculate_influence`` and maintains the
current top-L result set.  Once the best remaining heap key no longer exceeds
the L-th best score, the traversal terminates.
"""

from __future__ import annotations

import heapq
import time
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

from repro.exceptions import GraphError, IndexStateError
from repro.graph.social_network import SocialNetwork, VertexId
from repro.graph.traversal import hop_subgraph
from repro.index.tree import TreeIndex, build_tree_index
from repro.influence.propagation import community_propagation
from repro.keywords.bitvector import BitVector
from repro.pruning.rules import (
    center_has_query_keyword,
    keyword_prune_by_bitvector,
    score_prune,
    support_prune,
    trussness_prune,
)
from repro.pruning.stats import PruningConfig, PruningCounters
from repro.query.params import TopLQuery
from repro.query.results import QueryStatistics, SeedCommunity, TopLResult
from repro.query.seed import extract_seed_community


@dataclass
class _Candidate:
    """A scored seed community while the result set is being maintained."""

    community: SeedCommunity

    @property
    def score(self) -> float:
        return self.community.score


class _ResultSet:
    """The running top-L result set ``S`` with its threshold ``sigma_L``.

    Distinct candidate centres can extract the *same* community (a dense
    cluster is found from several of its members), so the set deduplicates by
    vertex set and keeps only distinct communities.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: list[_Candidate] = []
        self._seen: set[frozenset] = set()
        #: The smallest score among the current L best (``-inf`` until
        #: full); :meth:`consider` keeps it current.
        self.sigma_l = float("-inf")

    def consider(self, community: SeedCommunity) -> bool:
        """Insert ``community`` if it improves the result set; return ``True`` if kept."""
        if community.vertices in self._seen:
            return False
        candidate = _Candidate(community)
        if len(self._entries) < self.capacity:
            self._entries.append(candidate)
        elif candidate.score > self.sigma_l:
            evicted = self._entries.pop()
            self._seen.discard(evicted.community.vertices)
            self._entries.append(candidate)
        else:
            return False
        self._seen.add(community.vertices)
        self._entries.sort(key=lambda entry: entry.score, reverse=True)
        if len(self._entries) == self.capacity:
            self.sigma_l = self._entries[-1].score
        return True

    def communities(self) -> tuple:
        """The current communities, best first."""
        return tuple(entry.community for entry in self._entries)


def threshold_column(thresholds: tuple, theta: float) -> Optional[int]:
    """The position in ``thresholds`` of the largest ``theta_z <= theta``.

    ``None`` when ``theta`` is below every pre-selected threshold: no finite
    bound applies, so the key is ``+inf`` and nothing is score-pruned.  Every
    record and every node aggregate carries its ``score_bounds`` at exactly
    ``index.thresholds``, ascending, so ``score_bounds[column][1]`` is the
    bound :func:`~repro.pruning.rules.select_score_bound` would select.
    """
    column = bisect_right(thresholds, theta) - 1
    return column if column >= 0 else None


def walk_index(
    index: TreeIndex,
    query: TopLQuery,
    pruning: PruningConfig,
    results: Optional[_ResultSet],
    counters: PruningCounters,
    statistics: QueryStatistics,
):
    """Yield the leaves Algorithm 3 visits for ``query``, best bound first.

    The heap is keyed on each entry's applicable score bound, ties broken by
    push order.  Lemmas 5-7 are applied inline on the child's radius
    aggregates against per-query constants: an int AND with the query's
    keyword bits (:func:`~repro.pruning.index_rules.index_keyword_prune`),
    int compares against ``k - 2`` and ``k``
    (:func:`~repro.pruning.index_rules.index_support_prune`,
    :func:`~repro.pruning.rules.trussness_prune`), and the bound at the
    :func:`threshold_column`, which is both the score prune
    (:func:`~repro.pruning.index_rules.index_score_prune`) and the heap key
    (:func:`~repro.pruning.index_rules.entry_priority`).

    ``results.sigma_l`` is read live, so the consumer's work on one leaf
    tightens the checks on the entries after it; with score pruning off
    ``results`` is never read and may be ``None``.  The walk counts
    ``visited_index_nodes``, ``visited_leaf_vertices``,
    ``heap_terminated_early`` and the ``index_*`` pruning counters.
    """
    root = index.root
    if root is None:
        return
    radius, k = query.radius, query.k
    required_support = k - 2
    num_bits = index.precomputed.num_bits
    query_bits = BitVector.from_keywords(query.keywords, num_bits).bits
    column = threshold_column(index.thresholds, query.theta)
    check_keyword, check_support = pruning.keyword, pruning.support
    # Without a column every key is +inf, so no score check can fire.
    check_score = pruning.score and column is not None
    infinity = float("inf")
    heappush, heappop = heapq.heappush, heapq.heappop

    # Max-heap of (negated score bound, tie-breaker, node).
    heap: list[tuple[float, int, object]] = [(-infinity, 0, root)]
    counter = 1
    while heap:
        negative_key, _, node = heappop(heap)
        statistics.visited_index_nodes += 1
        if check_score and -negative_key <= results.sigma_l:
            statistics.heap_terminated_early = True
            return
        if node.is_leaf:
            statistics.visited_leaf_vertices += len(node.vertices)
            yield node
            continue
        for child in node.children:
            aggregates = child.aggregates
            entry = aggregates.per_radius[radius]
            if check_keyword:
                vector = entry.bitvector
                if vector.num_bits != num_bits:
                    raise GraphError(
                        f"bit vectors have mismatched widths: {vector.num_bits} vs {num_bits}"
                    )
                if not vector.bits & query_bits:
                    counters.index_keyword += 1
                    continue
            if check_support and (
                entry.support_upper_bound < required_support
                or aggregates.trussness_bound < k
            ):
                counters.index_support += 1
                continue
            if column is None:
                key = infinity
            else:
                key = entry.score_bounds[column][1]
                if check_score and key <= results.sigma_l:
                    counters.index_score += 1
                    continue
            heappush(heap, (-key, counter, child))
            counter += 1


class TopLProcessor:
    """Executes TopL-ICDE queries against a graph and its tree index.

    Parameters
    ----------
    graph:
        The social network ``G``.
    index:
        A pre-built :class:`TreeIndex`; when omitted one is built with default
        parameters (convenient for small graphs and tests, but real deployments
        should build the index once and reuse it).
    pruning:
        Which pruning rules to apply (the Figure 4 ablation runs the processor
        with reduced configurations); ``None`` means the full stack.
    propagation_cache:
        Optional LRU cache (any object with ``get(key)`` / ``put(key, value)``,
        see :class:`repro.serve.cache.LRUCache`) memoising
        ``community_propagation`` results keyed on ``(vertex set, theta)``.
        Shared across queries by the serving layer.
    cache_epoch:
        Graph epoch tagged into propagation-cache keys; the serving layer
        passes the engine's current epoch so entries memoised before a
        dynamic update can never be served after it.
    backend:
        ``"reference"`` extracts candidate communities with
        :func:`~repro.query.seed.extract_seed_community` over the dict-based
        graph and scores them with
        :func:`~repro.influence.propagation.community_propagation`;
        ``"fast"`` does both over an array snapshot of the graph, inside
        the query's qualified core: the keyword postings give Q, one
        k-truss peel of G[Q] gives T_Q and its connected components, and
        one tight leaf scan (:meth:`_fast_leaf_scan`) counts non-Q centres
        by arithmetic, runs the support and score checks on the rest, and
        calls the
        :meth:`~repro.fastgraph.kernels.CSRWorkspace.seed_community` kernel
        only for T_Q centres, which it answers from their component first,
        before the CSR propagation kernel scores — with identical
        communities, floats and work counters (see :mod:`repro.fastgraph`
        and ``docs/backends.md``).  The reference path is the equivalence
        oracle.
    workspace:
        Optional :class:`~repro.fastgraph.kernels.CSRWorkspace` for the
        ``fast`` backend, shared by the engine so per-call processors do not
        rebuild the scratch arrays per query; every fast kernel, scoring
        included, runs over the core it was built on.  When omitted the
        processor freezes the graph on first use.  Workspaces are
        single-threaded: share one only across sequential callers.
    """

    def __init__(
        self,
        graph: SocialNetwork,
        index: Optional[TreeIndex] = None,
        pruning: Optional[PruningConfig] = None,
        propagation_cache=None,
        cache_epoch: int = 0,
        backend: str = "reference",
        workspace=None,
    ) -> None:
        self.graph = graph
        self.index = index if index is not None else build_tree_index(graph)
        self.pruning = pruning if pruning is not None else PruningConfig.all_enabled()
        self.propagation_cache = propagation_cache
        self.cache_epoch = cache_epoch
        self.backend = backend
        self._workspace = workspace
        if propagation_cache is not None:
            # Deferred import: repro.serve imports this module at package
            # init, so the cache helpers cannot be imported at module level.
            from repro.serve.cache import propagation_cache_key

            self._propagation_key = propagation_cache_key

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def query(self, query: TopLQuery) -> TopLResult:
        """Answer a TopL-ICDE query (Algorithm 3)."""
        started = time.perf_counter()
        self.index.validate_radius(query.radius)
        counters = PruningCounters()
        statistics = QueryStatistics()
        results = _ResultSet(query.top_l)

        # Distinct candidate centres frequently extract the same community
        # (every member of a dense cluster is a valid centre for it); scoring
        # is the expensive step, so communities are deduplicated before it.
        scored_vertex_sets: set[frozenset] = set()
        leaves = walk_index(self.index, query, self.pruning, results, counters, statistics)
        if self.backend == "fast" and self.index.root is not None:
            scan = self._fast_leaf_scan(query, results, counters, statistics, scored_vertex_sets)
            for leaf in leaves:
                scan(leaf.vertices)
        else:
            query_bv = BitVector.from_keywords(query.keywords, self.index.precomputed.num_bits)
            for leaf in leaves:
                for vertex in leaf.vertices:
                    community = self._process_leaf_vertex(
                        vertex, query, query_bv, results, counters, statistics,
                        scored_vertex_sets,
                    )
                    if community is not None:
                        results.consider(community)

        statistics.pruned_by_keyword = counters.keyword + counters.index_keyword
        statistics.pruned_by_support = counters.support + counters.index_support
        statistics.pruned_by_score = counters.score + counters.index_score
        statistics.pruned_by_radius = counters.radius
        statistics.pruned_index_entries = counters.index_level
        statistics.elapsed_seconds = time.perf_counter() - started
        return TopLResult(communities=results.communities(), statistics=statistics)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _process_leaf_vertex(
        self,
        vertex: VertexId,
        query: TopLQuery,
        query_bv: BitVector,
        results: _ResultSet,
        counters: PruningCounters,
        statistics: QueryStatistics,
        scored_vertex_sets: set,
    ) -> Optional[SeedCommunity]:
        """Apply community-level pruning to a candidate centre, then refine it.

        The reference backend's per-centre step, as Algorithm 3 writes it;
        the fast backend runs :meth:`_fast_leaf_scan` instead.
        """
        statistics.candidates_examined += 1
        aggregates = self.index.vertex_aggregates(vertex)
        radius_aggregates = aggregates.for_radius(query.radius)

        if self.pruning.keyword:
            # Lemma 1: the r-hop subgraph must contain at least one query
            # keyword, and the centre itself must carry one.
            if keyword_prune_by_bitvector(radius_aggregates.bitvector, query_bv):
                counters.keyword += 1
                return None
            if not center_has_query_keyword(self.graph, vertex, query.keywords):
                counters.keyword += 1
                return None
        if self.pruning.support and (
            support_prune(radius_aggregates.support_upper_bound, query.k)
            or trussness_prune(aggregates.center_trussness, query.k)
        ):
            counters.support += 1
            return None
        if self.pruning.score and score_prune(
            radius_aggregates.score_bound_for(query.theta), results.sigma_l
        ):
            counters.score += 1
            return None

        # Refinement: extract the seed community and score it exactly.
        candidate_view = hop_subgraph(self.graph, vertex, query.radius)
        vertices = extract_seed_community(self.graph, vertex, query, candidate_view)
        if not vertices:
            counters.radius += 1
            return None
        return self._score_community(vertex, vertices, query, statistics, scored_vertex_sets)

    def _fast_leaf_scan(
        self,
        query: TopLQuery,
        results: _ResultSet,
        counters: PruningCounters,
        statistics: QueryStatistics,
        scored_vertex_sets: set,
    ):
        """The fast backend's leaf scan for ``query``: ``scan(centres)``.

        Builds the query's qualified core once — Q from the keyword
        postings, then one k-truss peel of G[Q] for T_Q and its components
        — and returns a closure over those and the other per-query
        constants that does :meth:`_process_leaf_vertex`'s job for a whole
        visited leaf, with the same counters in the same visit order:

        * With keyword pruning on, a centre outside Q fails Lemma 1's
          centre check, so it is counted as examined and keyword-pruned by
          arithmetic.  A Q member passes both keyword checks: it carries a
          query keyword, and that keyword's bit is in its r-hop ball vector
          (a vertex's own bits are in its ball vector; a Bloom filter has
          no false negatives), so neither check runs.  With keyword pruning
          off, every centre is scanned and no keyword check runs.
        * The support and score checks decide as the reference's do,
          against the live ``sigma_L``, but on hoisted constants: int
          compares against ``k - 2`` and ``k``, and the bound at the query's
          :func:`threshold_column` of each record, read straight from the
          ``precomputed.vertex_aggregates`` dict.
        * A centre outside T_Q has no seed community, so it counts as an
          empty extraction (``pruned_by_radius``) without a kernel call.
          A T_Q centre calls
          :meth:`~repro.fastgraph.kernels.CSRWorkspace.seed_community` with
          the components.
        """
        workspace = self._fast_workspace()
        members = workspace.qualified(query.keywords)
        components = workspace.qualified_truss(members, query.k)
        id_of = workspace.core.table.id_of
        qualified_ids = set(map(id_of, members)) if self.pruning.keyword else None
        # T_Q vertex id -> vertex int.
        truss_ints = {id_of(vertex): vertex for vertex in components}
        records = self.index.precomputed.vertex_aggregates
        seed_community = workspace.seed_community
        radius, k = query.radius, query.k
        required_support = k - 2
        column = threshold_column(self.index.thresholds, query.theta)
        check_support = self.pruning.support
        # Without a column the bound is +inf and the score check cannot fire.
        check_score = self.pruning.score and column is not None

        def scan(centres) -> None:
            if qualified_ids is not None:
                kept = [vertex for vertex in centres if vertex in qualified_ids]
                skipped = len(centres) - len(kept)
                statistics.candidates_examined += skipped
                counters.keyword += skipped
                centres = kept
            for vertex in centres:
                statistics.candidates_examined += 1
                if check_support or check_score:
                    try:
                        record = records[vertex]
                    except KeyError:
                        raise IndexStateError(
                            f"vertex {vertex!r} is not covered by the index"
                        ) from None
                    entry = record.per_radius[radius]
                    if check_support and (
                        entry.support_upper_bound < required_support
                        or record.center_trussness < k
                    ):
                        counters.support += 1
                        continue
                    if check_score and entry.score_bounds[column][1] <= results.sigma_l:
                        counters.score += 1
                        continue
                centre = truss_ints.get(vertex)
                if centre is None:
                    counters.radius += 1
                    continue
                found = seed_community(centre, radius, k, components)
                if not found:
                    counters.radius += 1
                    continue
                community = self._score_community(
                    vertex, frozenset(map(id_of, found)), query, statistics, scored_vertex_sets
                )
                if community is not None:
                    results.consider(community)

        return scan

    def _score_community(
        self,
        vertex: VertexId,
        vertices: frozenset,
        query: TopLQuery,
        statistics: QueryStatistics,
        scored_vertex_sets: set,
    ) -> Optional[SeedCommunity]:
        """Score an extracted community unless an earlier centre already did."""
        if vertices in scored_vertex_sets:
            return None
        scored_vertex_sets.add(vertices)
        influenced = self._propagate(vertices, query.theta, statistics)
        statistics.communities_scored += 1
        return SeedCommunity(
            center=vertex,
            vertices=vertices,
            influenced=influenced,
            k=query.k,
            radius=query.radius,
        )

    def _propagate(self, vertices: frozenset, theta: float, statistics: QueryStatistics):
        """Run ``calculate_influence``, consulting the propagation cache if any."""
        cache = self.propagation_cache
        if cache is None:
            return self._calculate_influence(vertices, theta)
        key = self._propagation_key(vertices, theta, self.cache_epoch)
        influenced = cache.get(key)
        if influenced is not None:
            statistics.propagation_cache_hits += 1
            return influenced
        statistics.propagation_cache_misses += 1
        influenced = self._calculate_influence(vertices, theta)
        cache.put(key, influenced)
        return influenced

    def _fast_workspace(self):
        """The fast backend's kernel workspace, synced with its core."""
        if self._workspace is None:
            # Deferred import keeps repro.query importable without the
            # fastgraph package loaded (reference-only deployments).
            from repro.fastgraph.kernels import CSRWorkspace

            self._workspace = CSRWorkspace(self.graph.freeze())
        self._workspace.sync()
        return self._workspace

    def _calculate_influence(self, vertices: frozenset, theta: float):
        """Score a community on the configured backend (identical results)."""
        if self.backend != "fast":
            return community_propagation(self.graph, vertices, theta)
        from repro.fastgraph.kernels import community_propagation_csr

        workspace = self._fast_workspace()
        return community_propagation_csr(
            workspace.core, vertices, theta, workspace=workspace
        )


def topl_icde(
    graph: SocialNetwork,
    query: TopLQuery,
    index: Optional[TreeIndex] = None,
    pruning: Optional[PruningConfig] = None,
) -> TopLResult:
    """Convenience wrapper: answer one TopL-ICDE query.

    Builds a default index when none is supplied; reuse a
    :class:`TopLProcessor` (or the :class:`repro.core.engine.InfluentialCommunityEngine`)
    when running many queries against the same graph.
    """
    processor = TopLProcessor(graph, index=index, pruning=pruning)
    return processor.query(query)
