"""Batch query serving layer: sequential batches with result/propagation caching.

See :class:`repro.serve.batch.BatchQueryEngine` for the main entry point; the
usual way to obtain one is :meth:`repro.core.engine.InfluentialCommunityEngine.serve`.
"""

from repro.serve.batch import (
    DEFAULT_PROPAGATION_CACHE_CAPACITY,
    DEFAULT_RESULT_CACHE_CAPACITY,
    BatchQueryEngine,
    BatchResult,
    BatchStatistics,
    ServingConfig,
)
from repro.serve.cache import (
    CacheStatistics,
    LRUCache,
    maybe_cache,
    propagation_cache_key,
    query_cache_key,
)

__all__ = [
    "BatchQueryEngine",
    "BatchResult",
    "BatchStatistics",
    "ServingConfig",
    "DEFAULT_RESULT_CACHE_CAPACITY",
    "DEFAULT_PROPAGATION_CACHE_CAPACITY",
    "CacheStatistics",
    "LRUCache",
    "maybe_cache",
    "propagation_cache_key",
    "query_cache_key",
]
