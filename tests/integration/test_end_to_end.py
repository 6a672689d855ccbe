"""End-to-end integration tests across the full pipeline.

These exercise the same path a downstream user would: generate / load a
dataset, build the engine (offline phase), persist and reload the index, and
run both query types — verifying cross-module consistency rather than any one
component.
"""

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import InfluentialCommunityEngine
from repro.graph.datasets import load_dataset
from repro.graph.io import load_graph_json, save_graph_json
from repro.pruning.stats import ABLATION_CONFIGS
from repro.query.baselines.atindex import atindex_topl
from repro.query.baselines.bruteforce import bruteforce_topl
from repro.workloads.queries import QueryWorkload
from repro.workloads.runner import ExperimentRunner
from repro.workloads.sweeps import PAPER_PARAMETER_GRID


@pytest.fixture(scope="module", params=["uni", "dblp"])
def dataset_engine(request):
    graph = load_dataset(request.param, num_vertices=150, rng=13)
    engine = InfluentialCommunityEngine.build(
        graph, config=EngineConfig(max_radius=2), validate=True
    )
    return graph, engine


class TestFullPipeline:
    def test_offline_then_online(self, dataset_engine):
        graph, engine = dataset_engine
        workload = QueryWorkload(graph, rng=5)
        query = workload.topl_query(num_keywords=5, k=3, radius=2, theta=0.2, top_l=3)
        result = engine.topl(query)
        assert len(result) <= 3
        for community in result:
            assert community.vertices <= frozenset(graph.vertices())

    def test_all_methods_agree_on_answers(self, dataset_engine):
        graph, engine = dataset_engine
        workload = QueryWorkload(graph, rng=6)
        query = workload.topl_query(num_keywords=5, k=3, radius=2, theta=0.2, top_l=3)
        ours = engine.topl(query)
        brute = bruteforce_topl(graph, query)
        at_index = atindex_topl(graph, query)
        assert list(ours.scores) == pytest.approx(list(brute.scores))
        assert list(at_index.scores) == pytest.approx(list(brute.scores))

    def test_ablation_configurations_preserve_answers(self, dataset_engine):
        graph, engine = dataset_engine
        workload = QueryWorkload(graph, rng=7)
        query = workload.topl_query(num_keywords=5, k=3, radius=2, theta=0.2, top_l=3)
        reference = list(engine.topl(query).scores)
        for config in ABLATION_CONFIGS:
            assert list(engine.topl(query, pruning=config).scores) == pytest.approx(reference)

    def test_graph_and_index_survive_disk_round_trip(self, tmp_path, dataset_engine):
        graph, engine = dataset_engine
        graph_path = tmp_path / "graph.json"
        store_path = tmp_path / "engine.repro-store"
        save_graph_json(graph, graph_path)
        engine.checkpoint_store(store_path)

        reloaded_graph = load_graph_json(graph_path)
        reloaded_engine = InfluentialCommunityEngine.from_store(store_path)
        assert list(reloaded_engine.graph.vertices()) == list(reloaded_graph.vertices())
        assert reloaded_engine.graph.num_edges() == reloaded_graph.num_edges()
        workload = QueryWorkload(reloaded_graph, rng=8)
        query = workload.topl_query(num_keywords=4, k=3, radius=2, theta=0.2, top_l=2)
        assert reloaded_engine.topl(query).communities == engine.topl(query).communities

    def test_dtopl_uses_topl_candidates(self, dataset_engine):
        graph, engine = dataset_engine
        workload = QueryWorkload(graph, rng=9)
        query = workload.dtopl_query(num_keywords=5, k=3, radius=2, theta=0.2, top_l=2, candidate_factor=3)
        topl_result = engine.topl(query.candidate_query())
        dtopl_result = engine.dtopl(query)
        topl_sets = {community.vertices for community in topl_result}
        assert all(community.vertices in topl_sets for community in dtopl_result)


class TestRunnerIntegration:
    def test_theta_sweep_produces_rows(self):
        runner = ExperimentRunner(
            grid=PAPER_PARAMETER_GRID.scaled(0.004),
            config=EngineConfig(max_radius=2),
            rng_seed=3,
        )
        graph = runner.synthetic_graph("zipf", num_vertices=100)
        workload = runner.workload_for(graph)
        rows = []
        for setting in runner.grid.sweep("theta"):
            query = workload.topl_query(
                num_keywords=setting["num_query_keywords"],
                k=3,
                radius=2,
                theta=setting["theta"],
                top_l=setting["top_l"],
            )
            rows.append(runner.measure_topl(graph, query).row())
        assert len(rows) == 3
        assert all(row["wall_clock_s"] > 0 for row in rows)
