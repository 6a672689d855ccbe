"""Query workload generation.

The evaluation issues queries whose keyword sets ``Q`` are random samples of
the keyword domain ``Sigma`` (Section VIII-A).  :class:`QueryWorkload`
produces reproducible batches of TopL-ICDE / DTopL-ICDE queries for a given
graph and parameter setting, used by the benches and the experiment runner.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._rng import RandomLike, resolve_rng
from repro.exceptions import DatasetError
from repro.graph.social_network import SocialNetwork
from repro.query.params import (
    DEFAULT_CANDIDATE_FACTOR,
    DEFAULT_RADIUS,
    DEFAULT_RESULT_SIZE,
    DEFAULT_THETA,
    DEFAULT_TRUSS_K,
    DTopLQuery,
    TopLQuery,
    make_dtopl_query,
    make_topl_query,
)


@dataclass
class QueryWorkload:
    """Generates reproducible query batches for one graph.

    Parameters
    ----------
    graph:
        The graph the queries will run against; its keyword domain is the
        sampling pool for ``Q``.
    rng:
        Seed or RNG instance.
    """

    graph: SocialNetwork
    rng: RandomLike = 97

    def __post_init__(self) -> None:
        self._rng = resolve_rng(self.rng)
        self._domain = sorted(self.graph.keyword_domain())
        if not self._domain:
            raise DatasetError(
                f"graph {self.graph.name!r} has no keywords; assign keywords before "
                "generating query workloads"
            )

    def sample_keywords(self, count: int) -> frozenset:
        """Sample ``count`` distinct query keywords from the graph's domain."""
        count = min(count, len(self._domain))
        return frozenset(self._rng.sample(self._domain, count))

    def topl_query(
        self,
        num_keywords: int = 5,
        k: int = DEFAULT_TRUSS_K,
        radius: int = DEFAULT_RADIUS,
        theta: float = DEFAULT_THETA,
        top_l: int = DEFAULT_RESULT_SIZE,
    ) -> TopLQuery:
        """Generate one TopL-ICDE query with a freshly sampled keyword set."""
        return make_topl_query(
            self.sample_keywords(num_keywords), k=k, radius=radius, theta=theta, top_l=top_l
        )

    def dtopl_query(
        self,
        num_keywords: int = 5,
        k: int = DEFAULT_TRUSS_K,
        radius: int = DEFAULT_RADIUS,
        theta: float = DEFAULT_THETA,
        top_l: int = DEFAULT_RESULT_SIZE,
        candidate_factor: int = DEFAULT_CANDIDATE_FACTOR,
    ) -> DTopLQuery:
        """Generate one DTopL-ICDE query with a freshly sampled keyword set."""
        return make_dtopl_query(
            self.sample_keywords(num_keywords),
            k=k,
            radius=radius,
            theta=theta,
            top_l=top_l,
            candidate_factor=candidate_factor,
        )

    def topl_batch(self, size: int, **kwargs) -> list[TopLQuery]:
        """Generate a batch of TopL-ICDE queries (one keyword sample each)."""
        return [self.topl_query(**kwargs) for _ in range(size)]

    def dtopl_batch(self, size: int, **kwargs) -> list[DTopLQuery]:
        """Generate a batch of DTopL-ICDE queries (one keyword sample each)."""
        return [self.dtopl_query(**kwargs) for _ in range(size)]
