"""Exact merge of per-shard candidate sets.

The single-process TopL answer is exactly what you get by replaying every
keyword/support-surviving candidate centre *in index traversal order*
through a fresh :class:`~repro.query.topl._ResultSet` — score pruning only
ever drops candidates whose ``consider()`` would have been a no-op, and the
max-heap's counter tie-breaking makes the surviving visit order independent
of which entries score pruning removed.

That replay is the merge: the router computes the **canonical visit order**
(the traversal with keyword/support entry pruning only — deterministic given
the index, the query and the pruning config, and results-independent because
score bounds never enter it), each shard returns its final local result set,
and the merged answer is the shards' candidates replayed through one result
set in canonical-position order.  Vertex-set deduplication and score-tie
handling inside ``_ResultSet`` then reproduce the single-process outcome
bit-for-bit, including which centre a community is attributed to (the
canonically-first surviving extractor, exactly as in one process).

DTopL composes on top: merge the shards' ``n * L`` candidate sets at full
capacity, then run the stock lazy greedy centrally — selection order,
``increment_evaluations`` and the diversity score all reproduce exactly.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Sequence

from repro.exceptions import ServingError
from repro.index.tree import TreeIndex
from repro.pruning.stats import PruningConfig, PruningCounters
from repro.query.params import TopLQuery
from repro.query.results import QueryStatistics, SeedCommunity
from repro.query.topl import _ResultSet, walk_index


def canonical_visit_order(
    index: TreeIndex, query: TopLQuery, pruning: PruningConfig
) -> dict:
    """Map each reachable candidate centre to its canonical visit position.

    Runs the :class:`~repro.query.topl.TopLProcessor` traversal itself
    (:func:`~repro.query.topl.walk_index`: same heap keys, same counter
    tie-breaking, same keyword/support entry checks) with score pruning
    off, so **no score pruning and no early termination**, and the order
    is a fixed point every shard's (score-pruned) traversal embeds into.
    Leaf-level pruning is irrelevant here: extra positions for centres no
    shard returns are harmless, while every returned centre is guaranteed a
    position (shards never prune less than this walk).
    """
    index.validate_radius(query.radius)
    positions: dict = {}
    unscored = replace(pruning, score=False)
    for leaf in walk_index(index, query, unscored, None, PruningCounters(), QueryStatistics()):
        for vertex in leaf.vertices:
            positions.setdefault(vertex, len(positions))
    return positions


def merge_shard_candidates(
    shard_candidates: Iterable[Sequence[SeedCommunity]],
    positions: dict,
    capacity: int,
) -> tuple:
    """Replay the shards' candidates in canonical order through one result set.

    ``positions`` comes from :func:`canonical_visit_order` on the router's
    (authoritative) index; a centre without a position means a worker served
    from a different graph epoch, which the update broadcast is supposed to
    make impossible — fail loudly rather than merge inconsistently.
    """
    ranked: list[tuple[int, SeedCommunity]] = []
    for candidates in shard_candidates:
        for community in candidates:
            position = positions.get(community.center)
            if position is None:
                raise ServingError(
                    f"shard returned centre {community.center!r} that is not in "
                    "the canonical visit order; worker state is out of sync "
                    "with the router (missed update broadcast?)"
                )
            ranked.append((position, community))
    ranked.sort(key=lambda item: item[0])
    results = _ResultSet(capacity)
    for _, community in ranked:
        results.consider(community)
    return results.communities()


def aggregate_statistics(per_shard: Iterable[QueryStatistics]) -> QueryStatistics:
    """Total work across shards (counters sum; wall-clock is set by the caller).

    The aggregate intentionally differs from a single-process run — shards
    each walk the index and prune against local thresholds, so sharded
    ``visited_*``/``pruned_*`` counts are a statement about distributed work,
    not a replay of the sequential trace.  Equivalence comparisons therefore
    strip ``statistics`` (everything a client consumes as the *answer* is
    bit-identical).
    """
    total = QueryStatistics()
    for statistics in per_shard:
        total.visited_index_nodes += statistics.visited_index_nodes
        total.visited_leaf_vertices += statistics.visited_leaf_vertices
        total.candidates_examined += statistics.candidates_examined
        total.communities_scored += statistics.communities_scored
        total.pruned_by_keyword += statistics.pruned_by_keyword
        total.pruned_by_support += statistics.pruned_by_support
        total.pruned_by_radius += statistics.pruned_by_radius
        total.pruned_by_score += statistics.pruned_by_score
        total.pruned_index_entries += statistics.pruned_index_entries
        total.heap_terminated_early = (
            total.heap_terminated_early or statistics.heap_terminated_early
        )
        total.propagation_cache_hits += statistics.propagation_cache_hits
        total.propagation_cache_misses += statistics.propagation_cache_misses
    return total
