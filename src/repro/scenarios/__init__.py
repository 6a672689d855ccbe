"""Declarative multi-dataset scenario screening.

A *scenario* is a declarative document — graph recipe × probability model ×
traffic trace × gates — that the harness executes end-to-end on both
engine backends and reduces to a machine-readable report.  The package is
the screening layer of the repo: the built-in catalog crosses the paper's
dataset families with influence-probability models and production traffic
shapes, every run re-proves cross-backend equivalence, and the results land
in ``BENCH_scenarios.json`` where CI's schema gate keeps them honest.

Layout
------
:mod:`~repro.scenarios.spec`
    The validated spec types and the ``.toml`` / ``.json`` loader.
:mod:`~repro.scenarios.generators`
    Graph recipes and probability models.
:mod:`~repro.scenarios.traces`
    Deterministic mixed read/update trace synthesis.
:mod:`~repro.scenarios.pipeline`
    End-to-end execution (build → replay → gates) and the report value.
:mod:`~repro.scenarios.catalog`
    The built-in scenario catalog (smoke + nightly tiers).
:mod:`~repro.scenarios.report`
    ``BENCH_scenarios.json`` emission and ASCII summaries.
:mod:`~repro.scenarios.bench_schema`
    The checked-in BENCH schema and its dependency-free validator.
"""

from repro.scenarios.bench_schema import (
    SCHEMA_PATH,
    load_bench_schema,
    validate_bench_document,
    validate_bench_file,
    validate_instance,
)
from repro.scenarios.catalog import catalog, get_scenario, scenario_names, smoke_catalog
from repro.scenarios.generators import apply_probability_model, build_scenario_graph
from repro.scenarios.pipeline import BACKENDS, BackendRun, ScenarioReport, run_scenario
from repro.scenarios.report import (
    BENCH_NAME,
    format_scenario_table,
    load_scenarios_document,
    scenarios_document,
    write_scenarios_document,
)
from repro.scenarios.spec import (
    GRAPH_RECIPES,
    PROBABILITY_MODELS,
    TRACE_KINDS,
    EngineSpec,
    GateSpec,
    GraphSpec,
    ProbabilitySpec,
    QuerySpec,
    ScenarioSpec,
    TraceSpec,
    load_scenario_file,
    scenario_from_json,
)
from repro.scenarios.traces import TraceOp, TrafficTrace, synthesize_trace

__all__ = [
    "BACKENDS",
    "BENCH_NAME",
    "GRAPH_RECIPES",
    "PROBABILITY_MODELS",
    "SCHEMA_PATH",
    "TRACE_KINDS",
    "BackendRun",
    "EngineSpec",
    "GateSpec",
    "GraphSpec",
    "ProbabilitySpec",
    "QuerySpec",
    "ScenarioReport",
    "ScenarioSpec",
    "TraceOp",
    "TraceSpec",
    "TrafficTrace",
    "apply_probability_model",
    "build_scenario_graph",
    "catalog",
    "format_scenario_table",
    "get_scenario",
    "load_bench_schema",
    "load_scenario_file",
    "load_scenarios_document",
    "run_scenario",
    "scenario_from_json",
    "scenario_names",
    "scenarios_document",
    "smoke_catalog",
    "synthesize_trace",
    "validate_bench_document",
    "validate_bench_file",
    "validate_instance",
    "write_scenarios_document",
]
