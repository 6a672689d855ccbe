"""Experiment runner: wires datasets, sweeps, queries and methods together.

The benches under ``benchmarks/`` are thin wrappers around this runner so the
same experiments can also be executed programmatically (see
``examples/parameter_study.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.core.config import EngineConfig
from repro.core.engine import InfluentialCommunityEngine
from repro.graph.datasets import synthetic_small_world
from repro.graph.social_network import SocialNetwork
from repro.pruning.stats import PruningConfig
from repro.query.params import TopLQuery
from repro.service.facade import CommunityService
from repro.workloads.queries import QueryWorkload
from repro.workloads.sweeps import PAPER_PARAMETER_GRID, ParameterGrid, SweepPoint


@dataclass
class ExperimentRunner:
    """Builds engines per graph and measures query methods over sweeps.

    Engines are hosted as sessions of one :class:`CommunityService`, one
    session per graph.
    """

    grid: ParameterGrid = PAPER_PARAMETER_GRID
    config: Optional[EngineConfig] = None
    rng_seed: int = 2024

    def __post_init__(self) -> None:
        self._service = CommunityService()

    @property
    def service(self) -> CommunityService:
        """The service hosting this runner's engines (one session per graph)."""
        return self._service

    # ------------------------------------------------------------------ #
    # graph / engine management
    # ------------------------------------------------------------------ #
    def _graph_key(self, graph: SocialNetwork) -> str:
        return f"{graph.name}:{graph.num_vertices()}:{graph.num_edges()}"

    def session_for(self, graph: SocialNetwork) -> str:
        """Host ``graph`` as a service session (idempotent); returns its name."""
        key = self._graph_key(graph)
        if not self._service.has_session(key):
            engine = InfluentialCommunityEngine.build(
                graph, config=self.config, validate=False
            )
            self._service.adopt(engine, session=key)
        return key

    def engine_for(self, graph: SocialNetwork) -> InfluentialCommunityEngine:
        """Build (and cache) the engine for a graph; keyed by graph name and size."""
        return self._service.engine(self.session_for(graph))

    def synthetic_graph(
        self,
        distribution: str,
        num_vertices: int,
        keywords_per_vertex: Optional[int] = None,
        domain_size: Optional[int] = None,
    ) -> SocialNetwork:
        """Generate one of the paper's synthetic graphs at the requested setting."""
        defaults = self.grid.defaults()
        return synthetic_small_world(
            distribution,
            num_vertices=num_vertices,
            keywords_per_vertex=keywords_per_vertex or defaults["keywords_per_vertex"],
            domain_size=domain_size or defaults["keyword_domain"],
            rng=self.rng_seed,
        )

    # ------------------------------------------------------------------ #
    # measurements
    # ------------------------------------------------------------------ #
    def measure_topl(
        self,
        graph: SocialNetwork,
        query: TopLQuery,
        pruning: Optional[PruningConfig] = None,
    ) -> SweepPoint:
        """Run one TopL-ICDE query and capture wall clock + pruning metrics."""
        engine = self.engine_for(graph)
        pruning = pruning if pruning is not None else PruningConfig.all_enabled()
        started = time.perf_counter()
        result = engine.topl(query, pruning=pruning)
        elapsed = time.perf_counter() - started
        return SweepPoint(
            settings={"dataset": graph.name, **query.describe(), "pruning": pruning.label()},
            metrics={
                "wall_clock_s": elapsed,
                "communities": len(result),
                "best_score": result.scores[0] if result.scores else 0.0,
                "pruned": result.statistics.total_pruned,
                "scored": result.statistics.communities_scored,
            },
        )

    def workload_for(self, graph: SocialNetwork, seed: Optional[int] = None) -> QueryWorkload:
        """Build a reproducible query workload for ``graph``."""
        return QueryWorkload(graph, rng=self.rng_seed if seed is None else seed)
