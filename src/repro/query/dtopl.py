"""Online DTopL-ICDE processing (Algorithm 4, ``Greedy_WP``).

The DTopL-ICDE problem is NP-hard (Lemma 8: reduction from Maximum Coverage),
so the paper answers it approximately:

1. run the online TopL-ICDE algorithm to collect the top ``n * L`` most
   influential candidate communities, then
2. greedily pick ``L`` of them maximising the diversity score
   ``D(S) = sum_v max_{g in S} cpp(g, v)``.

Because ``D`` is monotone and submodular, the greedy selection enjoys the
``(1 - 1/e)`` guarantee (scaled by ``eps = |S'| / |S_hat|`` for restricting
attention to the top ``n * L`` candidates, Lemma 10), and stale marginal
gains upper-bound fresh ones (Lemma 9) — which is exactly CELF-style lazy
evaluation: candidates are kept in a max-heap keyed by their last computed
gain, and a popped candidate whose gain is up to date is guaranteed optimal
for the current round.
"""

from __future__ import annotations

import heapq
import time
from typing import Optional

from repro.graph.social_network import SocialNetwork
from repro.index.tree import TreeIndex
from repro.pruning.diversity import apply_to_coverage, coverage_map, marginal_gain
from repro.pruning.stats import PruningConfig
from repro.query.params import DTopLQuery
from repro.query.results import DTopLResult, SeedCommunity, TopLResult
from repro.query.topl import TopLProcessor


class DTopLProcessor:
    """Executes DTopL-ICDE queries (candidate collection + lazy greedy refinement)."""

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
        self.topl = TopLProcessor(
            graph,
            index=index,
            pruning=pruning,
            propagation_cache=propagation_cache,
            cache_epoch=cache_epoch,
            backend=backend,
            workspace=workspace,
        )

    @property
    def index(self) -> TreeIndex:
        """The tree index shared with the underlying TopL processor."""
        return self.topl.index

    def query(self, query: DTopLQuery) -> DTopLResult:
        """Answer a DTopL-ICDE query with the lazy greedy (``Greedy_WP``)."""
        started = time.perf_counter()
        candidate_result = self.topl.query(query.candidate_query())
        selection, increments = greedy_select_diversified(
            list(candidate_result.communities), query.top_l
        )
        statistics = candidate_result.statistics
        statistics.elapsed_seconds = time.perf_counter() - started
        score = _diversity_of(selection)
        return DTopLResult(
            communities=tuple(selection),
            diversity_score=score,
            statistics=statistics,
            increment_evaluations=increments,
            candidates_considered=len(candidate_result.communities),
        )

    def candidates(self, query: DTopLQuery) -> TopLResult:
        """Return the raw top-(n*L) candidate communities (exposed for analysis)."""
        return self.topl.query(query.candidate_query())


def greedy_select_diversified(
    candidates: list[SeedCommunity], top_l: int
) -> tuple[list[SeedCommunity], int]:
    """Lazily-greedy selection of ``top_l`` communities maximising diversity.

    Returns the selected communities (in pick order) and the number of
    marginal-gain evaluations performed (the quantity the Lemma 9 pruning
    saves compared with ``Greedy_WoP``).
    """
    if top_l <= 0 or not candidates:
        return [], 0

    selection: list[SeedCommunity] = []
    coverage: dict = {}
    evaluations = 0

    # Heap entries: (-gain_bound, tie, round_computed, community).
    heap: list[tuple[float, int, int, SeedCommunity]] = []
    for tie, community in enumerate(candidates):
        # Initial bound: the community's own influential score (its gain
        # against the empty selection).
        heapq.heappush(heap, (-community.score, tie, 0, community))

    current_round = 0
    tie_breaker = len(candidates)
    while heap and len(selection) < top_l:
        negative_bound, _, computed_round, community = heapq.heappop(heap)
        if computed_round == current_round:
            # Bound is fresh for this round: by submodularity no other
            # candidate can beat it (Lemma 9), so select it.
            selection.append(community)
            apply_to_coverage(community.influenced, coverage)
            current_round += 1
            continue
        # Stale bound: recompute against the current selection and re-insert.
        gain = marginal_gain(community.influenced, coverage)
        evaluations += 1
        heapq.heappush(heap, (-gain, tie_breaker, current_round, community))
        tie_breaker += 1
    return selection, evaluations


def dtopl_icde(
    graph: SocialNetwork,
    query: DTopLQuery,
    index: Optional[TreeIndex] = None,
    pruning: Optional[PruningConfig] = None,
) -> DTopLResult:
    """Convenience wrapper: answer one DTopL-ICDE query."""
    processor = DTopLProcessor(graph, index=index, pruning=pruning)
    return processor.query(query)


def _diversity_of(selection: list[SeedCommunity]) -> float:
    # Sorted-sum for cross-backend bit-identical scores (see diversity_score).
    return sum(
        sorted(coverage_map([community.influenced for community in selection]).values())
    )
