"""Batch query serving over one built index.

:class:`BatchQueryEngine` answers a batch (or stream) of mixed TopL-ICDE /
DTopL-ICDE queries against a single :class:`~repro.core.engine.InfluentialCommunityEngine`:

* **sequentially** with shared state — one processor pair reused across the
  whole batch, a whole-result LRU cache keyed on ``(query, pruning)``, and a
  propagation cache memoising ``calculate_influence`` across queries whose
  candidate centres overlap; or
* **in parallel** via a ``multiprocessing`` pool.  On platforms with ``fork``
  the workers inherit the parent's engine for free; otherwise (``spawn`` /
  ``forkserver``) each worker *rebuilds* the engine once from
  :meth:`~repro.core.engine.InfluentialCommunityEngine.to_payload`, so the
  offline phase is never re-run.

Results come back in input order in both modes, and the parallel path is
bit-identical to the sequential one (the online algorithms are
deterministic).  The graph and index may change *between* calls through
``engine.apply_updates``: the serving engine detects the epoch bump on the
next ``answer()``/``run()``, re-binds its processors to the (possibly
re-built) index, and — because every cache key is epoch-tagged — can never
serve a result cached before the update.

Cache scope: the whole-result cache lives in the parent and persists across
batches in *both* modes (parallel answers are folded back into it).  The
propagation cache persists across batches only on the sequential path; a
parallel ``run()`` builds its pool per call, so workers start with empty
propagation caches that die with the pool (their hit counts still surface in
:class:`BatchStatistics`).  Batches small enough to feel pool start-up costs
belong on the sequential path anyway.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from repro.core.engine import InfluentialCommunityEngine
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

_START_METHODS = ("fork", "spawn", "forkserver")


@dataclass(frozen=True)
class ServingConfig:
    """Configuration of a :class:`BatchQueryEngine`.

    Attributes
    ----------
    workers:
        Default worker count for :meth:`BatchQueryEngine.run`; ``1`` answers
        sequentially in-process.
    result_cache_capacity:
        Whole-result LRU capacity; ``0`` disables result caching (and the
        within-batch deduplication that rides on it).
    propagation_cache_capacity:
        ``community_propagation`` LRU capacity; ``0`` disables it.
    start_method:
        ``multiprocessing`` start method for parallel batches; ``None`` picks
        ``fork`` when the platform offers it (workers inherit the engine),
        falling back to ``spawn`` (workers rebuild it from its payload).
    chunk_size:
        ``Pool.map`` chunk size; small values balance uneven query costs.
    """

    workers: int = 1
    result_cache_capacity: int = DEFAULT_RESULT_CACHE_CAPACITY
    propagation_cache_capacity: int = DEFAULT_PROPAGATION_CACHE_CAPACITY
    start_method: Optional[str] = None
    chunk_size: int = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ServingError(f"workers must be >= 1, got {self.workers}")
        if self.result_cache_capacity < 0:
            raise ServingError(
                f"result_cache_capacity must be >= 0, got {self.result_cache_capacity}"
            )
        if self.propagation_cache_capacity < 0:
            raise ServingError(
                "propagation_cache_capacity must be >= 0, "
                f"got {self.propagation_cache_capacity}"
            )
        if self.start_method is not None and self.start_method not in _START_METHODS:
            raise ServingError(
                f"start_method must be one of {_START_METHODS} or None, "
                f"got {self.start_method!r}"
            )
        if self.chunk_size < 1:
            raise ServingError(f"chunk_size must be >= 1, got {self.chunk_size}")


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
    workers: int = 1
    mode: str = "sequential"
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
            "workers": self.workers,
            "mode": self.mode,
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


# --------------------------------------------------------------------------- #
# worker plumbing
# --------------------------------------------------------------------------- #
#: This process's engine.  The parent sets it just before forking a pool, so
#: ``fork`` workers inherit it; ``spawn``/``forkserver`` workers rebuild it
#: from its payload.  Held for the worker's lifetime, which also keeps a
#: store-backed engine's mmap pages alive.
_WORKER_ENGINE: Optional[InfluentialCommunityEngine] = None

#: Per-process processor pair over ``_WORKER_ENGINE``; set by :func:`_worker_init`.
_WORKER_PROCESSORS: Optional[tuple] = None


def _build_processors(
    engine: InfluentialCommunityEngine,
    pruning: PruningConfig,
    propagation_cache: Optional[LRUCache],
    workspace=None,
) -> tuple:
    """A TopL/DTopL processor pair over the engine's current graph and index.

    Both share the engine's snapshot and one propagation cache tagged with
    the engine's epoch.  ``workspace`` is only passed on the in-process
    path, where the engine's incrementally synced scratch arrays can be
    reused; pool workers build their own.
    """
    shared = dict(
        index=engine.index,
        pruning=pruning,
        propagation_cache=propagation_cache,
        cache_epoch=engine.epoch,
        backend=engine.config.backend,
        frozen=engine.frozen_graph(),
        workspace=workspace,
    )
    return TopLProcessor(engine.graph, **shared), DTopLProcessor(engine.graph, **shared)


def _worker_init(
    payload: Optional[dict], pruning: PruningConfig, propagation_cache_capacity: int
) -> None:
    """Pool initializer: bind this worker's processors to its engine.

    ``payload`` is ``None`` for ``fork`` workers, which inherited
    ``_WORKER_ENGINE``; otherwise it is the parent engine's
    :meth:`~repro.core.engine.InfluentialCommunityEngine.to_payload`.
    """
    global _WORKER_ENGINE, _WORKER_PROCESSORS
    if payload is not None:
        _WORKER_ENGINE = InfluentialCommunityEngine.from_payload(payload)
    _WORKER_PROCESSORS = _build_processors(
        _WORKER_ENGINE, pruning, maybe_cache(propagation_cache_capacity)
    )


def _worker_answer(item: tuple) -> tuple:
    """Answer one ``(position, query)`` pair in a pool worker."""
    position, query = item
    topl, dtopl = _WORKER_PROCESSORS
    if isinstance(query, DTopLQuery):
        return position, dtopl.query(query)
    return position, topl.query(query)


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
        Serving configuration (worker count, cache capacities, start method).
    pruning:
        Pruning rules applied to every query; ``None`` means the full stack.
    """

    @classmethod
    def for_session(cls, service, session: str = "default") -> "BatchQueryEngine":
        """The serving engine behind a :class:`~repro.service.facade.CommunityService` session.

        The preferred binding for serving workers: a session *name* instead
        of an engine object, so the worker sees whatever engine the service
        currently hosts under that name (rebuilds included).  Returns the
        session's persistent serving engine — caches are shared with every
        other consumer of the session.
        """
        return service.serving(session)

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
        self._topl, self._dtopl = _build_processors(
            self.engine,
            self.pruning,
            self.propagation_cache,
            workspace=self.engine._workspace(),
        )

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
                return cached
        result = self._execute(query)
        if self.result_cache is not None:
            self.result_cache.put(key, result)
        return result

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
    def run(self, queries: Iterable[Query], workers: Optional[int] = None) -> BatchResult:
        """Answer a batch of queries; results come back in input order.

        ``workers`` overrides the configured default.  With the result cache
        enabled, cached queries are answered up front and duplicates within
        the batch are executed once; with it disabled every query runs (the
        honest configuration for throughput measurements).
        """
        queries = list(queries)
        workers = self.config.workers if workers is None else workers
        if workers < 1:
            raise ServingError(f"workers must be >= 1, got {workers}")
        self._refresh_if_stale()
        statistics = BatchStatistics(total_queries=len(queries), workers=workers)
        started = time.perf_counter()
        results: list = [None] * len(queries)

        pending: list[tuple[int, Query]] = []
        if self.result_cache is not None:
            for position, query in enumerate(queries):
                cached = self.result_cache.get(
                    query_cache_key(query, self.pruning, self._epoch)
                )
                if cached is not None:
                    results[position] = cached
                    statistics.result_cache_hits += 1
                else:
                    pending.append((position, query))
                    statistics.result_cache_misses += 1
        else:
            pending = list(enumerate(queries))

        if workers == 1 or len(pending) <= 1:
            self._run_sequential(pending, results, statistics)
        else:
            self._run_parallel(pending, results, statistics, workers)

        statistics.elapsed_seconds = time.perf_counter() - started
        return BatchResult(results=tuple(results), statistics=statistics)

    @staticmethod
    def _absorb_query_statistics(statistics: BatchStatistics, result: QueryResult) -> None:
        statistics.propagation_cache_hits += result.statistics.propagation_cache_hits
        statistics.propagation_cache_misses += result.statistics.propagation_cache_misses

    def _run_sequential(
        self,
        pending: list,
        results: list,
        statistics: BatchStatistics,
    ) -> None:
        statistics.mode = "sequential"
        statistics.workers = 1
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
                        results[position] = cached
                        statistics.deduplicated += 1
                        continue
                result = self._execute(query)
                self.result_cache.put(key, result)
                executed_keys.add(key)
            results[position] = result
            statistics.executed += 1
            self._absorb_query_statistics(statistics, result)

    def _run_parallel(
        self,
        pending: list,
        results: list,
        statistics: BatchStatistics,
        workers: int,
    ) -> None:
        method = self._resolve_start_method()
        statistics.mode = method
        # Execute each distinct query once; fan the answer out to duplicates.
        items: list[tuple[int, Query]] = []
        duplicate_of: dict[int, int] = {}
        if self.result_cache is not None:
            first_position: dict = {}
            for position, query in pending:
                key = query_cache_key(query, self.pruning, self._epoch)
                if key in first_position:
                    duplicate_of[position] = first_position[key]
                    statistics.deduplicated += 1
                else:
                    first_position[key] = position
                    items.append((position, query))
        else:
            items = pending

        context = multiprocessing.get_context(method)
        workers = min(workers, len(items)) or 1
        statistics.workers = workers
        global _WORKER_ENGINE
        if method == "fork":
            _WORKER_ENGINE = self.engine
            payload = None
        else:
            payload = self.engine.to_payload()
        try:
            pool = context.Pool(
                workers,
                initializer=_worker_init,
                initargs=(payload, self.pruning, self.config.propagation_cache_capacity),
            )
            with pool:
                answered = pool.map(
                    _worker_answer, items, chunksize=self.config.chunk_size
                )
        finally:
            _WORKER_ENGINE = None

        by_position = dict(answered)
        for position, query in items:
            result = by_position[position]
            results[position] = result
            statistics.executed += 1
            self._absorb_query_statistics(statistics, result)
            if self.result_cache is not None:
                self.result_cache.put(
                    query_cache_key(query, self.pruning, self._epoch), result
                )
        for position, source in duplicate_of.items():
            results[position] = results[source]

    def _resolve_start_method(self) -> str:
        if self.config.start_method is not None:
            return self.config.start_method
        available = multiprocessing.get_all_start_methods()
        return "fork" if "fork" in available else "spawn"

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

    def clear_caches(self) -> None:
        """Drop every cached entry (statistics are kept)."""
        if self.result_cache is not None:
            self.result_cache.clear()
        if self.propagation_cache is not None:
            self.propagation_cache.clear()
