"""Tests for the batch serving engine: caching, deduplication, order stability."""

from __future__ import annotations

import pytest

from repro.exceptions import ServingError
from repro.query.params import DTopLQuery
from repro.query.results import DTopLResult, TopLResult
from repro.serve.batch import (
    DEFAULT_PROPAGATION_CACHE_CAPACITY,
    DEFAULT_RESULT_CACHE_CAPACITY,
    BatchQueryEngine,
    ServingConfig,
)
from repro.workloads.queries import QueryWorkload


def _fingerprint(result):
    """Stable identity of a query result: vertex sets + scores, in order."""
    return tuple(
        (community.vertices, round(community.score, 9)) for community in result
    )


@pytest.fixture(scope="module")
def serve_workload(small_world_graph):
    """A module-private workload so the shared session RNG is left untouched."""
    return QueryWorkload(small_world_graph, rng=31)


@pytest.fixture(scope="module")
def mixed_queries(serve_workload):
    """A deterministic mixed batch: 6 TopL + 2 DTopL queries."""
    topl = serve_workload.topl_batch(6, num_keywords=3, k=3, top_l=3)
    dtopl = serve_workload.dtopl_batch(2, num_keywords=3, k=3, top_l=3)
    return [topl[0], dtopl[0], *topl[1:4], dtopl[1], *topl[4:]]


class TestServingConfig:
    def test_defaults_valid(self):
        config = ServingConfig()
        assert config.result_cache_capacity == DEFAULT_RESULT_CACHE_CAPACITY
        assert config.propagation_cache_capacity == DEFAULT_PROPAGATION_CACHE_CAPACITY

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"result_cache_capacity": -1},
            {"propagation_cache_capacity": -1},
            {"result_cache_capacity": 0, "propagation_cache_capacity": -1},
        ],
    )
    def test_invalid_configuration_rejected(self, kwargs):
        with pytest.raises(ServingError):
            ServingConfig(**kwargs)


class TestSequentialServing:
    def test_results_match_direct_engine_calls(self, small_engine, mixed_queries):
        serving = small_engine.serve()
        batch = serving.run(mixed_queries)
        assert len(batch) == len(mixed_queries)
        for query, result in zip(mixed_queries, batch):
            if isinstance(query, DTopLQuery):
                assert isinstance(result, DTopLResult)
                direct = small_engine.dtopl(query)
            else:
                assert isinstance(result, TopLResult)
                direct = small_engine.topl(query)
            assert _fingerprint(result) == _fingerprint(direct)

    def test_cache_hit_returns_identical_result(self, small_engine, mixed_queries):
        serving = small_engine.serve()
        query = mixed_queries[0]
        cold = serving.answer(query)
        warm = serving.answer(query)
        assert warm is cold
        statistics = serving.cache_statistics()["result_cache"]
        assert statistics["hits"] == 1
        assert statistics["misses"] == 1

    def test_batch_second_round_served_from_cache(self, small_engine, mixed_queries):
        serving = small_engine.serve()
        first = serving.run(mixed_queries)
        second = serving.run(mixed_queries)
        assert first.statistics.executed == len(mixed_queries)
        assert second.statistics.executed == 0
        assert second.statistics.result_cache_hits == len(mixed_queries)
        for a, b in zip(first, second):
            assert _fingerprint(a) == _fingerprint(b)

    def test_result_cache_eviction_respects_capacity(self, small_engine, mixed_queries):
        serving = small_engine.serve(result_cache_capacity=1)
        first, second = mixed_queries[0], mixed_queries[2]
        serving.answer(first)
        serving.answer(second)  # evicts `first`
        serving.answer(first)   # must be recomputed
        assert serving.result_cache.statistics.evictions >= 1
        assert serving.result_cache.statistics.hits == 0

    def test_duplicate_queries_deduplicated_within_batch(self, small_engine, mixed_queries):
        query = mixed_queries[0]
        batch = small_engine.serve().run([query, query, query])
        assert batch.statistics.executed == 1
        assert batch.statistics.deduplicated == 2
        assert _fingerprint(batch[0]) == _fingerprint(batch[2])

    def test_cache_disabled_executes_everything(self, small_engine, mixed_queries):
        serving = small_engine.serve(
            result_cache_capacity=0, propagation_cache_capacity=0
        )
        query = mixed_queries[0]
        batch = serving.run([query, query])
        assert batch.statistics.executed == 2
        assert batch.statistics.result_cache_hits == 0
        assert serving.result_cache is None
        assert serving.propagation_cache is None

    def test_propagation_cache_shared_across_queries(
        self, small_engine, small_world_graph
    ):
        serving = small_engine.serve()
        workload = QueryWorkload(small_world_graph, rng=31)
        workload.topl_query(num_keywords=3, k=3, top_l=3)  # skip a no-hit sample
        query = workload.topl_query(num_keywords=3, k=3, top_l=3)
        widened = query.with_overrides(top_l=5)
        cold = serving.answer(query)
        assert cold.statistics.communities_scored > 0
        result = serving.answer(widened)
        # The widened query revisits the same candidate communities, so the
        # shared propagation cache must answer some of its scorings.
        assert result.statistics.propagation_cache_hits > 0

    def test_rejects_non_query_input(self, small_engine):
        with pytest.raises(ServingError):
            small_engine.serve().run(["nonsense"])


class TestEngineWrappers:
    def test_serve_builds_configured_engine(self, small_engine):
        serving = small_engine.serve(result_cache_capacity=7)
        assert isinstance(serving, BatchQueryEngine)
        assert serving.config.result_cache_capacity == 7
        assert serving.result_cache.capacity == 7
