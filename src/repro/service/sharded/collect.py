"""Shard-local candidate collection.

A :class:`ShardTopLCollector` is a :class:`~repro.query.topl.TopLProcessor`
restricted to the candidate centres its shard owns: the index traversal,
entry pruning, extraction and scoring are all the stock algorithm — only
non-owned leaf vertices are skipped before any community-level work.

Why the shard-local run stays mergeable into an exact global answer:

* Keyword/support pruning is per-candidate and identical on every shard.
* Score pruning compares bounds against the *local* ``sigma_L``, which is
  never above what the global run would hold at the same traversal point
  (the local result set is built from a subset of the global candidate
  stream) — so everything a shard score-prunes is a provable global reject.
* The shard's final local result set keeps, for every candidate it dropped,
  ``L`` distinct communities at least as good; those survivors are what the
  merge re-ranks (:mod:`repro.service.sharded.merge`).
"""

from __future__ import annotations

from repro.query.params import TopLQuery
from repro.query.results import QueryStatistics, TopLResult
from repro.query.topl import TopLProcessor
from repro.service.sharded.plan import ShardPlan


class ShardTopLCollector(TopLProcessor):
    """A TopL processor that answers only the centres its shard owns."""

    def __init__(self, *args, plan: ShardPlan, shard: int, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.plan = plan
        self.shard = shard

    def _leaf_centres(self, vertices: tuple):
        return [vertex for vertex in vertices if self.plan.owner(vertex) == self.shard]


def collect_shard_candidates(
    collector: ShardTopLCollector, query: TopLQuery
) -> TopLResult:
    """One shard's local top-``L`` candidate set for ``query``.

    DTopL candidate collection is the same call with the expanded
    ``query.candidate_query()`` (capacity ``n * L``); the diversified greedy
    runs centrally on the exactly-merged candidates.
    """
    return collector.query(query)


def statistics_to_wire(statistics: QueryStatistics) -> dict:
    """Pipe-friendly form of one shard's work counters."""
    return statistics.as_dict()


def statistics_from_wire(payload: dict) -> QueryStatistics:
    """Rebuild shard statistics shipped over the worker pipe."""
    fields = dict(payload)
    fields.pop("total_pruned", None)  # derived property, not a field
    return QueryStatistics(**fields)
