"""Unit tests for the experiment runner."""

import pytest

from repro.core.config import EngineConfig
from repro.pruning.stats import PruningConfig
from repro.workloads.runner import ExperimentRunner
from repro.workloads.sweeps import PAPER_PARAMETER_GRID


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(
        grid=PAPER_PARAMETER_GRID.scaled(0.005),
        config=EngineConfig(max_radius=2, thresholds=(0.1, 0.2, 0.3)),
        rng_seed=7,
    )


@pytest.fixture(scope="module")
def small_uni_graph(runner):
    return runner.synthetic_graph("uniform", num_vertices=120)


class TestExperimentRunner:
    def test_engine_cached_per_graph(self, runner, small_uni_graph):
        first = runner.engine_for(small_uni_graph)
        second = runner.engine_for(small_uni_graph)
        assert first is second

    def test_synthetic_graph_uses_grid_defaults(self, runner, small_uni_graph):
        defaults = runner.grid.defaults()
        assert small_uni_graph.num_vertices() <= 120
        sample_vertex = next(iter(small_uni_graph.vertices()))
        assert len(small_uni_graph.keywords(sample_vertex)) == defaults["keywords_per_vertex"]

    def test_measure_topl_metrics(self, runner, small_uni_graph):
        workload = runner.workload_for(small_uni_graph)
        query = workload.topl_query(num_keywords=5, k=3, radius=2, theta=0.2, top_l=3)
        point = runner.measure_topl(small_uni_graph, query)
        row = point.row()
        assert row["dataset"] == "Uni"
        assert row["wall_clock_s"] > 0
        assert row["communities"] >= 0
        assert row["pruning"] == PruningConfig.all_enabled().label()
