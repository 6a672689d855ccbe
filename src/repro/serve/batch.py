"""Batch query serving over one built index.

:class:`BatchQueryEngine` answers a batch (or stream) of mixed TopL-ICDE /
DTopL-ICDE queries against a single :class:`~repro.core.engine.InfluentialCommunityEngine`,
sequentially and in-process, with shared state: one processor pair reused
across every query, a whole-result LRU cache keyed on ``(query, pruning)``,
and a propagation cache memoising ``calculate_influence`` across queries
whose candidate centres overlap.  Both caches persist across batches.

Results come back in input order.  The graph and index may change *between*
calls through ``engine.apply_updates``: the serving engine detects the epoch
bump on the next ``answer()``/``run()``, re-binds its processors to the
(possibly re-built) index, and — because every cache key is epoch-tagged —
can never serve a result cached before the update.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from repro.exceptions import ServingError
from repro.pruning.stats import PruningConfig
from repro.query.dtopl import DTopLProcessor
from repro.query.params import DTopLQuery, TopLQuery
from repro.query.results import DTopLResult, TopLResult
from repro.query.topl import TopLProcessor
from repro.serve.cache import LRUCache, maybe_cache, query_cache_key

Query = Union[TopLQuery, DTopLQuery]
QueryResult = Union[TopLResult, DTopLResult]

#: Default whole-result cache capacity (entries).
DEFAULT_RESULT_CACHE_CAPACITY = 256
#: Default ``community_propagation`` cache capacity (entries).
DEFAULT_PROPAGATION_CACHE_CAPACITY = 4096


@dataclass(frozen=True)
class ServingConfig:
    """Configuration of a :class:`BatchQueryEngine`.

    Attributes
    ----------
    result_cache_capacity:
        Whole-result LRU capacity; ``0`` disables result caching (and the
        within-batch deduplication that rides on it).
    propagation_cache_capacity:
        ``community_propagation`` LRU capacity; ``0`` disables it.
    """

    result_cache_capacity: int = DEFAULT_RESULT_CACHE_CAPACITY
    propagation_cache_capacity: int = DEFAULT_PROPAGATION_CACHE_CAPACITY

    def __post_init__(self) -> None:
        if self.result_cache_capacity < 0:
            raise ServingError(
                f"result_cache_capacity must be >= 0, got {self.result_cache_capacity}"
            )
        if self.propagation_cache_capacity < 0:
            raise ServingError(
                "propagation_cache_capacity must be >= 0, "
                f"got {self.propagation_cache_capacity}"
            )


@dataclass
class BatchStatistics:
    """Counters describing one :meth:`BatchQueryEngine.run` execution."""

    total_queries: int = 0
    executed: int = 0
    result_cache_hits: int = 0
    result_cache_misses: int = 0
    deduplicated: int = 0
    propagation_cache_hits: int = 0
    propagation_cache_misses: int = 0
    elapsed_seconds: float = 0.0

    @property
    def queries_per_second(self) -> float:
        """Batch throughput (0.0 for an empty or instantaneous batch)."""
        if self.elapsed_seconds <= 0.0 or self.total_queries == 0:
            return 0.0
        return self.total_queries / self.elapsed_seconds

    @property
    def result_cache_hit_rate(self) -> float:
        lookups = self.result_cache_hits + self.result_cache_misses
        return self.result_cache_hits / lookups if lookups else 0.0

    def as_dict(self) -> dict:
        """Return the counters as a flat dict (used in reports and the CLI)."""
        return {
            "total_queries": self.total_queries,
            "executed": self.executed,
            "result_cache_hits": self.result_cache_hits,
            "result_cache_misses": self.result_cache_misses,
            "result_cache_hit_rate": round(self.result_cache_hit_rate, 4),
            "deduplicated": self.deduplicated,
            "propagation_cache_hits": self.propagation_cache_hits,
            "propagation_cache_misses": self.propagation_cache_misses,
            "elapsed_seconds": self.elapsed_seconds,
            "queries_per_second": round(self.queries_per_second, 4),
        }


@dataclass(frozen=True)
class BatchResult:
    """Results of a batch, in input order, plus execution statistics."""

    results: tuple
    statistics: BatchStatistics

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index: int) -> QueryResult:
        return self.results[index]


@dataclass
class CachedResult:
    """One result-cache entry: a result and, once encoded, its wire tail.

    ``wire_tail`` is the UTF-8 JSON of the result's response document after
    the envelope (see :func:`repro.service.schema.response_tail`), filled in
    by the first front-door hit that needs it.  It lives and dies with the
    entry, under the same key and the same eviction: a re-executed result for
    the key may carry other statistics, so its text must not outlive it.
    """

    result: QueryResult
    wire_tail: Optional[bytes] = None


# --------------------------------------------------------------------------- #
# the serving engine
# --------------------------------------------------------------------------- #
class BatchQueryEngine:
    """Serves batches of mixed TopL/DTopL queries against one built engine.

    Parameters
    ----------
    engine:
        A ready :class:`~repro.core.engine.InfluentialCommunityEngine`.
        Dynamic updates applied to it between calls are absorbed
        automatically (epoch-tagged caches, processor re-binding).
    config:
        Serving configuration (cache capacities).
    pruning:
        Pruning rules applied to every query; ``None`` means the full stack.
    """

    def __init__(
        self,
        engine,
        config: Optional[ServingConfig] = None,
        pruning: Optional[PruningConfig] = None,
    ) -> None:
        self.engine = engine
        self.config = config or ServingConfig()
        self.pruning = pruning if pruning is not None else PruningConfig.all_enabled()
        self.result_cache: Optional[LRUCache] = maybe_cache(
            self.config.result_cache_capacity
        )
        self.propagation_cache: Optional[LRUCache] = maybe_cache(
            self.config.propagation_cache_capacity
        )
        #: Number of times a graph-epoch change was detected and absorbed.
        self.epoch_refreshes = 0
        self._epoch = engine.epoch
        self._rebind_processors()

    def _rebind_processors(self) -> None:
        # Reusing the engine's incrementally synced workspace avoids
        # rebuilding the per-vertex scratch tuples on every epoch re-bind;
        # safe because the engine, this serving engine and its processors
        # all run queries sequentially (the workspace resets its stamps
        # after each call).
        engine = self.engine
        shared = dict(
            index=engine.index,
            pruning=self.pruning,
            propagation_cache=self.propagation_cache,
            cache_epoch=engine.epoch,
            backend=engine.config.backend,
            workspace=engine._workspace(),
        )
        self._topl = TopLProcessor(engine.graph, **shared)
        self._dtopl = DTopLProcessor(engine.graph, **shared)

    def _refresh_if_stale(self) -> None:
        """Absorb a dynamic update of the served engine.

        ``apply_updates`` bumps ``engine.epoch`` (and may swap the index
        object on a rebuild); re-binding the processors picks up the new
        index, and tagging cache keys with the new epoch makes every entry
        written before the update unreachable — stale hits are impossible.
        """
        epoch = self.engine.epoch
        if epoch != self._epoch:
            self._epoch = epoch
            self._rebind_processors()
            self.epoch_refreshes += 1

    # ------------------------------------------------------------------ #
    # single queries (streaming use)
    # ------------------------------------------------------------------ #
    def answer(self, query: Query) -> QueryResult:
        """Answer one query through the shared caches (the streaming path)."""
        self._refresh_if_stale()
        key = query_cache_key(query, self.pruning, self._epoch)
        if self.result_cache is not None:
            cached = self.result_cache.get(key)
            if cached is not None:
                return cached.result
        result = self._execute(query)
        if self.result_cache is not None:
            self.result_cache.put(key, CachedResult(result))
        return result

    def cached(self, query: Query) -> Optional[CachedResult]:
        """The result-cache entry :meth:`answer` would hit for ``query``, or ``None``.

        ``None`` when result caching is off, when the engine was updated
        since the last call (the next ``answer`` re-binds first) or when the
        key is absent; such a miss counts no lookup.  A hit counts one,
        exactly as it would in ``answer``.
        """
        if self.result_cache is None or self.engine.epoch != self._epoch:
            return None
        key = query_cache_key(query, self.pruning, self._epoch)
        if key not in self.result_cache:
            return None
        return self.result_cache.get(key)

    def _execute(self, query: Query) -> QueryResult:
        if isinstance(query, DTopLQuery):
            return self._dtopl.query(query)
        if isinstance(query, TopLQuery):
            return self._topl.query(query)
        raise ServingError(
            f"expected a TopLQuery or DTopLQuery, got {type(query).__name__}"
        )

    # ------------------------------------------------------------------ #
    # batches
    # ------------------------------------------------------------------ #
    def run(self, queries: Iterable[Query]) -> BatchResult:
        """Answer a batch of queries; results come back in input order.

        With the result cache enabled, cached queries are answered up front
        and duplicates within the batch are executed once; with it disabled
        every query runs (the honest configuration for throughput
        measurements).
        """
        queries = list(queries)
        self._refresh_if_stale()
        statistics = BatchStatistics(total_queries=len(queries))
        started = time.perf_counter()
        results: list = [None] * len(queries)

        pending: list[tuple[int, Query]] = []
        if self.result_cache is not None:
            for position, query in enumerate(queries):
                cached = self.result_cache.get(
                    query_cache_key(query, self.pruning, self._epoch)
                )
                if cached is not None:
                    results[position] = cached.result
                    statistics.result_cache_hits += 1
                else:
                    pending.append((position, query))
                    statistics.result_cache_misses += 1
        else:
            pending = list(enumerate(queries))

        executed_keys: set = set()
        for position, query in pending:
            if self.result_cache is None:
                result = self._execute(query)
            else:
                key = query_cache_key(query, self.pruning, self._epoch)
                if key in executed_keys:
                    # A duplicate earlier in the batch already filled the
                    # cache (unless a tiny capacity evicted it since).
                    cached = self.result_cache.get(key)
                    if cached is not None:
                        results[position] = cached.result
                        statistics.deduplicated += 1
                        continue
                result = self._execute(query)
                self.result_cache.put(key, CachedResult(result))
                executed_keys.add(key)
            results[position] = result
            statistics.executed += 1
            statistics.propagation_cache_hits += result.statistics.propagation_cache_hits
            statistics.propagation_cache_misses += result.statistics.propagation_cache_misses

        statistics.elapsed_seconds = time.perf_counter() - started
        return BatchResult(results=tuple(results), statistics=statistics)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def cache_statistics(self) -> dict:
        """Hit/miss/eviction counters of both caches (zeros when disabled)."""
        empty = {"hits": 0, "misses": 0, "evictions": 0, "lookups": 0, "hit_rate": 0.0}
        return {
            "result_cache": (
                self.result_cache.statistics.as_dict()
                if self.result_cache is not None
                else dict(empty)
            ),
            "propagation_cache": (
                self.propagation_cache.statistics.as_dict()
                if self.propagation_cache is not None
                else dict(empty)
            ),
        }
